"""Desk-scale synthetic check-in corpus.

Users live on a city grid and follow noisy daily routines over their
personal anchor POIs (home, office, coffee shop, restaurants, bar or
gym). The key property: weekday mornings and evenings both start at
home, but continue differently depending on the hour, so per-step
context carries real signal beyond the POI transition structure alone.
Each day yields at least one session, and routines are personalized
enough that sequence models have something to learn over a popularity
count.
"""

from __future__ import annotations

import math

import numpy as np

from .types import Checkins, SocialGraph

CITY_LAT = 40.70
CITY_LON = -74.00
GRID_SPACING_KM = 0.35
BASE_EPOCH = 1330905600  # 2012-03-05 00:00:00 UTC, a Monday

CATEGORY_SHARES = [
    ("Home/Work:Home", 0.30),
    ("Home/Work:Corporate Office", 0.14),
    ("Food:Coffee Shop", 0.10),
    ("Food:Restaurant", 0.12),
    ("Nightlife:Bar", 0.07),
    ("Parks & Outdoors:Park", 0.07),
    ("Shop:Grocery", 0.08),
    ("Travel:Train Station", 0.04),
    ("Fitness:Gym", 0.04),
    ("Arts:Museum", 0.04),
]


def _grid_positions(n_pois: int) -> list[tuple[float, float]]:
    side = max(1, math.ceil(math.sqrt(n_pois)))
    dlat = GRID_SPACING_KM / 111.19
    dlon = dlat / math.cos(math.radians(CITY_LAT))
    out = []
    for k in range(n_pois):
        row, col = divmod(k, side)
        out.append((CITY_LAT + row * dlat, CITY_LON + col * dlon))
    return out


def _assign_categories(n_pois: int, rng: np.random.Generator) -> list[str]:
    cats = []
    for name, share in CATEGORY_SHARES:
        cats.extend([name] * max(1, int(round(share * n_pois))))
    cats = cats[:n_pois]
    while len(cats) < n_pois:
        cats.append(CATEGORY_SHARES[0][0])
    perm = rng.permutation(n_pois)
    return [cats[i] for i in perm]


def _nearest_of_category(pois, category, origin_ix, rng, top=3, exclude=()):
    """Index of a POI of ``category`` near ``origin_ix``; jittered among
    the ``top`` closest so users do not all share one anchor."""
    olat, olon = pois[origin_ix][1], pois[origin_ix][2]
    candidates = [
        (abs(lat - olat) + abs(lon - olon), ix)
        for ix, (_, lat, lon, cat) in enumerate(pois)
        if cat == category and ix not in exclude
    ]
    if not candidates:
        return origin_ix
    candidates.sort()
    pick = min(int(rng.integers(0, top)), len(candidates) - 1)
    return candidates[pick][1]


def synth_dataset(
    seed: int,
    n_users: int = 60,
    n_pois: int = 200,
    days: int = 30,
) -> tuple[Checkins, SocialGraph]:
    """Generate (check-ins, friendship graph), deterministic per seed."""
    if n_users < 1 or n_pois < 1 or days < 1:
        raise ValueError("n_users, n_pois and days must all be >= 1")
    rng = np.random.default_rng(seed)

    positions = _grid_positions(n_pois)
    categories = _assign_categories(n_pois, rng)
    pois = [
        (f"p{ix:04d}", positions[ix][0], positions[ix][1], categories[ix])
        for ix in range(n_pois)
    ]
    by_cat: dict[str, list[int]] = {}
    for ix, (_, _, _, cat) in enumerate(pois):
        by_cat.setdefault(cat, []).append(ix)

    homes = by_cat.get("Home/Work:Home", list(range(n_pois)))
    offices = by_cat.get("Home/Work:Corporate Office", homes)
    errand_pool = by_cat.get("Shop:Grocery", homes) + by_cat.get(
        "Travel:Train Station", []
    )

    users = []
    for u in range(n_users):
        home = homes[u % len(homes)]
        office = offices[u % len(offices)]
        coffee = _nearest_of_category(pois, "Food:Coffee Shop", office, rng)
        lunch = _nearest_of_category(pois, "Food:Restaurant", office, rng)
        dinner = _nearest_of_category(
            pois, "Food:Restaurant", home, rng, exclude={lunch}
        )
        bar = _nearest_of_category(pois, "Nightlife:Bar", home, rng)
        gym = _nearest_of_category(pois, "Fitness:Gym", home, rng)
        park = _nearest_of_category(pois, "Parks & Outdoors:Park", home, rng)
        shop = _nearest_of_category(pois, "Shop:Grocery", home, rng)
        users.append(
            {
                "id": f"u{u:04d}",
                "home": home,
                "office": office,
                "coffee": coffee,
                "lunch": lunch,
                "dinner": dinner,
                "evening": bar if u % 4 != 0 else gym,
                "park": park,
                "shop": shop,
            }
        )

    def jitter(base_seconds: int, spread: int = 900) -> int:
        return base_seconds + int(rng.integers(-spread, spread + 1))

    records = []
    noise_p = 0.08
    for user in users:
        for day in range(days):
            day_start = BASE_EPOCH + day * 86400
            weekend = day % 7 in (5, 6)
            if weekend:
                plan = [
                    (user["home"], 10 * 3600),
                    (user["park"], 11 * 3600 + 1800),
                    (user["shop"], 13 * 3600),
                    (user["dinner"], 14 * 3600 + 1800),
                    (user["home"], 16 * 3600),
                ]
            else:
                plan = [
                    (user["home"], 8 * 3600),
                    (user["coffee"], 8 * 3600 + 2700),
                    (user["office"], 9 * 3600 + 1800),
                    (user["lunch"], 12 * 3600 + 1800),
                    (user["office"], 13 * 3600 + 2700),
                    # evening block starts a fresh session: > 8 h after 8:00
                    (user["home"], 18 * 3600),
                    (user["dinner"], 19 * 3600),
                    (user["evening"], 20 * 3600 + 1800),
                    (user["home"], 22 * 3600),
                ]
            prev_ts = 0
            for step, (poi_ix, base) in enumerate(plan):
                # occasional errand replaces a mid-sequence stop
                if 0 < step < len(plan) - 1 and rng.random() < noise_p:
                    poi_ix = errand_pool[int(rng.integers(0, len(errand_pool)))]
                ts = day_start + jitter(base)
                ts = max(ts, prev_ts + 300)
                prev_ts = ts
                poi_id, lat, lon, cat = pois[poi_ix]
                records.append((user["id"], poi_id, ts, lat, lon, cat, "synthville"))

    # colleagues (same office) befriend each other often; neighbours sometimes
    edges = []
    for i in range(n_users):
        for j in range(i + 1, n_users):
            if users[i]["office"] == users[j]["office"]:
                if rng.random() < 0.6:
                    edges.append((users[i]["id"], users[j]["id"]))
            elif j == i + 1 and rng.random() < 0.3:
                edges.append((users[i]["id"], users[j]["id"]))

    return Checkins.of(records), SocialGraph(edges)
