"""Seeded generator of INI scenario texts for the ``sweep`` workload.

The batch is a Latin hypercube over the continuous scenario properties
(box size, clearance, obstacle centre, circle radius, virtual mass, force
amplitudes), so every batch spreads each property over its whole range and
batches of different seeds cost about the same to simulate. Slack and
anisotropic virtual mass are stratified: each of the four combinations
takes every fourth config. The program under test sees only the text.

Every config starts with its reference inside the safe set: the start is
the circle start clipped into the shrunk box, and the obstacle centre lies
at least 60 degrees from the positive x axis, which keeps it more than
0.01 m beyond its clearance from any such start.
"""

import hashlib
import math
import random

BATCH = 12
DURATION = 5.0  # s: the scripted human force ramps in over [4, 5)
DT = 0.002

RANGES = {
    "box_x": (0.11, 0.16),
    "box_y": (0.11, 0.16),
    "r": (0.03, 0.05),
    "radius": (0.10, 0.16),
    "obs_angle": (math.pi / 3, 5 * math.pi / 3),
    "obs_dist": (0.06, 0.11),
    "k_m_x": (8.0, 30.0),
    "k_m_y": (8.0, 30.0),
    "a1": (-2.5, 2.5),
    "a2": (-2.5, 2.5),
}


def _latin_hypercube(rng: random.Random, n: int):
    columns = {}
    for key, (lo, hi) in RANGES.items():
        strata = list(range(n))
        rng.shuffle(strata)
        columns[key] = [lo + (hi - lo) * (s + rng.random()) / n for s in strata]
    return [{key: col[i] for key, col in columns.items()} for i in range(n)]


def _start_is_safe(p) -> bool:
    lo_x, hi_x = -p["box_x"] + p["r"], p["box_x"] - p["r"]
    start = (min(max(p["radius"], lo_x), hi_x), 0.0)
    obs = (p["obs_dist"] * math.cos(p["obs_angle"]),
           p["obs_dist"] * math.sin(p["obs_angle"]))
    return math.dist(start, obs) > p["r"]


def _ini_text(i: int, p, duration: float) -> str:
    anisotropic = i % 2 == 1
    slack = (i // 2) % 2 == 1
    k_m = f"{p['k_m_x']:.6g}" + (f",{p['k_m_y']:.6g}" if anisotropic else "")
    ox = p["obs_dist"] * math.cos(p["obs_angle"])
    oy = p["obs_dist"] * math.sin(p["obs_angle"])
    return "\n".join([
        "[admittance]",
        f"k_m = {k_m}",
        "[scenario]",
        f"name = sweep-{i:02d}",
        f"duration = {duration!r}",
        f"dt = {DT!r}",
        f"radius = {p['radius']:.6g}",
        f"a1 = {p['a1']:.6g}",
        f"a2 = {p['a2']:.6g}",
        "[constraints]",
        "set = both",
        f"x_min = {-p['box_x']:.6g},{-p['box_y']:.6g}",
        f"x_max = {p['box_x']:.6g},{p['box_y']:.6g}",
        f"x_obs = {ox:.6g},{oy:.6g}",
        f"r = {p['r']:.6g}",
        f"slack = {'true' if slack else 'false'}",
    ]) + "\n"


def generate(seed: int, duration: float = DURATION, batch: int = BATCH):
    """The batch of INI texts for ``seed``; equal seeds give equal texts."""
    points = _latin_hypercube(random.Random(seed), batch)
    for p in points:
        if not _start_is_safe(p):
            raise RuntimeError(f"generator produced an unsafe start: {p}")
    return [_ini_text(i, p, duration) for i, p in enumerate(points)]


def digest(texts) -> str:
    return hashlib.sha256("\0".join(texts).encode()).hexdigest()
