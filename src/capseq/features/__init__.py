from .tables import (
    ATTRIBUTE_DIM,
    FEATURE_DIM,
    HOURS,
    FeatureTables,
    StayStats,
    dataset_sha256,
)

__all__ = [
    "ATTRIBUTE_DIM",
    "FEATURE_DIM",
    "HOURS",
    "FeatureTables",
    "StayStats",
    "dataset_sha256",
]
