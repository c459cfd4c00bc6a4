"""Great-circle distance and walking-time helpers shared across the package.

All distances are kilometres on a spherical earth (R = 6371 km).
"""

from math import asin, cos, radians, sin, sqrt

EARTH_RADIUS_KM = 6371.0

# Walking speed of the deterministic travel time; read only by travel_seconds.
WALK_SPEED_KMH = 5.0


def travel_seconds(km):
    """Walking time in seconds over ``km`` (a float or an array)."""
    return km / WALK_SPEED_KMH * 3600.0


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Distance in km between two (lat, lon) points in decimal degrees."""
    lat1, lon1, lat2, lon2 = map(radians, (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = sin(dlat / 2.0) ** 2 + cos(lat1) * cos(lat2) * sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * asin(sqrt(a))

