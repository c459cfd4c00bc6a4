"""Great-circle distance helpers shared across the package.

All distances are kilometres on a spherical earth (R = 6371 km).
"""

from math import asin, cos, radians, sin, sqrt

EARTH_RADIUS_KM = 6371.0

# Default walking speed used by the deterministic travel-time model.
WALK_SPEED_KMH = 5.0


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Distance in km between two (lat, lon) points in decimal degrees."""
    lat1, lon1, lat2, lon2 = map(radians, (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = sin(dlat / 2.0) ** 2 + cos(lat1) * cos(lat2) * sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * asin(sqrt(a))

