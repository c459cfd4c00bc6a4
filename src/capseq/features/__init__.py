from .tables import (
    ATTRIBUTE_DIM,
    FEATURE_DIM,
    HOURS,
    FeatureTables,
    StayStats,
    compute_stay_stats,
    dataset_sha256,
    visit_arrays,
)

__all__ = [
    "ATTRIBUTE_DIM",
    "FEATURE_DIM",
    "HOURS",
    "FeatureTables",
    "StayStats",
    "compute_stay_stats",
    "dataset_sha256",
    "visit_arrays",
]
