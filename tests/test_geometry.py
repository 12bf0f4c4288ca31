"""Exact half-plane clipping primitives."""

from fractions import Fraction

from billiardpath.geometry import (
    BASE_TRIANGLE,
    clip_polygon,
    intersect_halfplanes,
    line_segment_in_halfplanes,
    point_satisfies,
    polygon_area2,
    polygon_bbox,
    segment_midpoint,
)

F = Fraction


def test_base_triangle_polygon():
    verts = intersect_halfplanes([])
    assert sorted(verts) == [(F(0), F(0)), (F(0), F(180)), (F(180), F(0))]
    assert polygon_area2(verts) == 180 * 180


def test_clip_to_square():
    square = [(1, 0, 0), (0, 1, 0), (-1, 0, 90), (0, -1, 90)]
    verts = intersect_halfplanes(square)
    assert sorted(verts) == [(F(0), F(0)), (F(0), F(90)),
                             (F(90), F(0)), (F(90), F(90))]
    assert polygon_bbox(verts) == (F(0), F(0), F(90), F(90))
    # cut a corner off
    cut = clip_polygon(verts, (-1, -1, 150))
    assert polygon_area2(cut) == 2 * 90 * 90 - 30 * 30


def test_empty_intersection():
    assert intersect_halfplanes([(1, 0, -200)]) == []
    # two opposite strict constraints leave a line, area collapses
    degenerate = intersect_halfplanes([(1, 0, 0), (-1, 0, 0)])
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
