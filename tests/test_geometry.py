"""Exact half-plane clipping primitives."""

import random
from fractions import Fraction
from math import gcd

from billiardpath.geometry import (
    BASE_TRIANGLE,
    clip_polygon,
    intersect_homogeneous,
    line_segment_in_halfplanes,
    point_satisfies,
    polygon_area2,
    polygon_bbox,
    segment_midpoint,
    to_point,
)

F = Fraction


def intersection_points(halfplanes):
    return [to_point(v) for v in intersect_homogeneous(halfplanes)]


def test_base_triangle_polygon():
    verts = intersection_points([])
    assert sorted(verts) == [(F(0), F(0)), (F(0), F(180)), (F(180), F(0))]
    assert polygon_area2(verts) == 180 * 180


def test_clip_to_square():
    square = [(1, 0, 0), (0, 1, 0), (-1, 0, 90), (0, -1, 90)]
    verts = intersection_points(square)
    assert sorted(verts) == [(F(0), F(0)), (F(0), F(90)),
                             (F(90), F(0)), (F(90), F(90))]
    assert polygon_bbox(verts) == (F(0), F(0), F(90), F(90))
    # cut a corner off
    cut = clip_polygon(verts, (-1, -1, 150))
    assert polygon_area2(cut) == 2 * 90 * 90 - 30 * 30


def test_empty_intersection():
    assert intersection_points([(1, 0, -200)]) == []
    # two opposite strict constraints leave a line, area collapses
    degenerate = intersection_points([(1, 0, 0), (-1, 0, 0)])
    assert polygon_area2(degenerate) == 0


def test_point_satisfies_strictness():
    hps = [(1, 0, 0), (0, 1, 0)]
    assert point_satisfies(hps, F(1), F(1), strict=True)
    assert not point_satisfies(hps, F(0), F(1), strict=True)
    assert point_satisfies(hps, F(0), F(1), strict=False)


TRIANGLE_HPS = [(1, 0, 0), (0, 1, 0), (-1, -1, 180)]


def test_line_segment_clip():
    # x + y = 90 across the base triangle
    seg = line_segment_in_halfplanes((1, 1, 1), TRIANGLE_HPS)
    assert seg == ((F(0), F(90)), (F(90), F(0)))
    assert segment_midpoint(seg) == (F(45), F(45))
    # a line missing the region entirely
    assert line_segment_in_halfplanes((1, 1, -2), TRIANGLE_HPS) is None
    # vertical line x = 60
    seg = line_segment_in_halfplanes((1, 0, F(2, 3)), TRIANGLE_HPS)
    assert seg == ((F(60), F(0)), (F(60), F(120)))


def test_segment_through_restricted_region():
    hps = TRIANGLE_HPS + [(0, 1, -30), (0, -1, 60)]  # 30 <= y <= 60
    seg = line_segment_in_halfplanes((1, 1, 1), hps)
    assert seg == ((F(30), F(60)), (F(60), F(30)))


def reference_clip(vertices, halfplane):
    """The clipping rule in Fraction arithmetic, one halfplane at a time."""
    a, b, c = halfplane
    out = []
    n = len(vertices)
    for i in range(n):
        p, q = vertices[i], vertices[(i + 1) % n]
        fp = a * p[0] + b * p[1] + c
        fq = a * q[0] + b * q[1] + c
        if fp >= 0:
            out.append(p)
        if (fp > 0 and fq < 0) or (fp < 0 and fq > 0):
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    dedup = []
    for v in out:
        if not dedup or v != dedup[-1]:
            dedup.append(v)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def reference_intersection(halfplanes):
    poly = list(BASE_TRIANGLE)
    for hp in halfplanes:
        poly = reference_clip(poly, hp)
        if not poly:
            return []
    return poly


def random_halfplanes(rng):
    """Integer triples mixing generic, parallel, repeated, scaled and
    vertex-grazing lines, plus pairs that leave a segment or nothing."""
    hps = []
    poly = list(BASE_TRIANGLE)
    for _ in range(rng.randrange(1, 13)):
        kind = rng.randrange(6)
        if kind == 0 or not hps:
            a, b = rng.randrange(-5, 6), rng.randrange(-5, 6)
            hp = (a, b, rng.randrange(-180, 181) * (abs(a) + abs(b) + 1))
        elif kind == 1:  # parallel to an earlier line
            a, b, c = rng.choice(hps)
            hp = (a, b, c + rng.randrange(-90, 91))
        elif kind == 2:  # repeated, possibly scaled
            k = rng.randrange(1, 4)
            hp = tuple(k * v for v in rng.choice(hps))
        elif kind == 3 and poly:  # through a vertex of the current result
            x, y = rng.choice(poly)
            a, b = rng.randrange(-5, 6), rng.randrange(-5, 6)
            d = x.denominator * y.denominator
            hp = (a * d, b * d, -(a * x + b * y) * d)
        elif kind == 4:  # the opposite side of an earlier line
            a, b, c = rng.choice(hps)
            hp = (-a, -b, -c + rng.randrange(0, 3) * 30)
        else:  # everything outside
            hp = (0, 0, -1) if rng.randrange(2) else (1, 1, -400)
        hp = tuple(int(v) for v in hp)
        hps.append(hp)
        poly = reference_intersection(hps)
    return hps


# a segment cut across with its first vertex outside, so the same crossing
# ends and starts the clipped list; a line through a base vertex; a line
# touching the triangle at one vertex only
FIXED_CASES = [
    [(1, 0, -60), (-1, 0, 60), (0, 1, -60)],
    [(1, -1, 0), (-1, 2, 0)],
    [(-1, -1, 180), (1, 1, -180)],
]


def test_integer_clipping_matches_fraction_rule():
    rng = random.Random(20)
    shapes = set()
    cases = FIXED_CASES + [random_halfplanes(rng) for _ in range(400)]
    for hps in cases:
        want = reference_intersection(hps)
        assert intersection_points(hps) == want, hps
        for X, Y, W in intersect_homogeneous(hps):
            assert W > 0 and gcd(X, Y, W) == 1
        shapes.add("empty" if not want else
                   "flat" if polygon_area2(want) == 0 else "open")
    assert shapes == {"empty", "flat", "open"}


def test_clip_polygon_matches_fraction_rule_on_rationals():
    rng = random.Random(21)
    for _ in range(200):
        poly = intersection_points(random_halfplanes(rng))
        if not poly:
            continue
        hp = (F(rng.randrange(-9, 10), rng.randrange(1, 5)),
              F(rng.randrange(-9, 10), rng.randrange(1, 5)),
              F(rng.randrange(-900, 901), rng.randrange(1, 7)))
        assert clip_polygon(poly, hp) == reference_clip(poly, hp)
