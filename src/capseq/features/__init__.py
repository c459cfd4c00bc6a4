from .tables import (
    ATTRIBUTE_DIM,
    FEATURE_DIM,
    HOURS,
    FeatureTables,
    StayStats,
)

__all__ = [
    "ATTRIBUTE_DIM",
    "FEATURE_DIM",
    "HOURS",
    "FeatureTables",
    "StayStats",
]
