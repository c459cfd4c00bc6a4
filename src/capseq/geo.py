"""Great-circle distance and walking-time helpers shared across the package.

All distances are kilometres on a spherical earth (R = 6371 km). A
distance is taken in two steps: ``place`` converts a point once, and
``arc_km`` measures between two converted points, so code that measures
many steps converts each place once. ``arcs_km`` measures many steps
between indexed places with one ``arc_km`` per distinct place pair, so
every step holds the scalar formula's bits.
"""

from math import asin, cos, radians, sin, sqrt

import numpy as np

EARTH_RADIUS_KM = 6371.0

# Walking speed of the deterministic travel time; read only by travel_seconds.
WALK_SPEED_KMH = 5.0


def travel_seconds(km):
    """Walking time in seconds over ``km`` (a float or an array)."""
    return km / WALK_SPEED_KMH * 3600.0


def place(lat: float, lon: float) -> tuple:
    """(φ, λ, cos φ) of a point in decimal degrees: what ``arc_km`` reads."""
    phi = radians(lat)
    return phi, radians(lon), cos(phi)


def arc_km(a: tuple, b: tuple) -> float:
    """Haversine distance in km between two ``place`` tuples."""
    phi1, lam1, cos1 = a
    phi2, lam2, cos2 = b
    h = sin((phi2 - phi1) / 2.0) ** 2 + cos1 * cos2 * sin((lam2 - lam1) / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * asin(sqrt(h))


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Distance in km between two (lat, lon) points in decimal degrees."""
    return arc_km(place(lat1, lon1), place(lat2, lon2))


def arcs_km(points, a, b) -> np.ndarray:
    """km from ``points[a[i]]`` to ``points[b[i]]`` for index arrays ``a``
    and ``b`` of one length: one ``arc_km`` per distinct (a, b) pair,
    gathered back to every step."""
    n = len(points)
    pairs, at = np.unique(np.asarray(a, dtype=np.int64) * n + np.asarray(b, dtype=np.int64),
                          return_inverse=True)
    src, dst = np.divmod(pairs, n)
    km = [arc_km(points[i], points[j]) for i, j in zip(src.tolist(), dst.tolist())]
    return np.array(km, dtype=float)[at]
