"""Inputs of the three workloads, shared by the runner and its workers.

Every input is fixed here or drawn from the run's seed; the program only
ever sees the generated targets, codes and triangles.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

PRECISION = 7           # decimal digits of every cover and first band test
ESCALATION = (7, 14, 30)  # band-test precisions tried in turn

# x in [30, 35] of the strip between x + y = 75 and x + y = 80, covered
# against every other entry of the shipped corpus (67 codes, 402
# code/assignment plans): polygon compilation dominates.  The whole corpus
# takes twice as long, which the benchmark's time budget does not allow.
STRIP_SLICE = ((F(30), F(45)), (F(35), F(40)), (F(35), F(45)), (F(30), F(50)))
STRIP_CODES = tuple(range(0, 134, 2))

# A piece of the thin end of the same strip, x in [11.5, 12] and y in
# [64.25, 64.5], where the quadtree goes six levels deep; covered against
# the five corpus codes that certify there, so certification dominates.
DEEP_BOX = ((F(23, 2), F(257, 4)), (F(12), F(257, 4)), (F(12), F(129, 2)),
            (F(23, 2), F(129, 2)))
DEEP_CODES = (21, 43, 90, 91, 100)

# Every fourteenth corpus entry: ten OSO, OSNO and CS codes of length 3 to
# 72, each checked once per round.
BAND_CODES = tuple(range(0, 134, 14))

COVERS = {
    "cover-strip": (STRIP_SLICE, STRIP_CODES),
    "cover-deep": (DEEP_BOX, DEEP_CODES),
}

WORKLOADS = ("cover-strip", "cover-deep", "band-oracle")


def band_round(seed: int, k: int):
    """Round ``k`` of a run: every band code once, in a seeded order, each
    with the seed of its triangle weights."""
    rng = random.Random(f"band-oracle:{seed}:{k}")
    order = list(BAND_CODES)
    rng.shuffle(order)
    return [(i, rng.randrange(2 ** 32)) for i in order]


def triangle_in(vertices, subseed: int):
    """Seeded point strictly inside a convex polygon: a weighted average of
    its vertices with integer weights in [1, 63]."""
    rng = random.Random(subseed)
    ws = [F(rng.randrange(1, 64)) for _ in vertices]
    tot = sum(ws)
    x = sum(w * vx for w, (vx, _) in zip(ws, vertices)) / tot
    y = sum(w * vy for w, (_, vy) in zip(ws, vertices)) / tot
    return x, y
