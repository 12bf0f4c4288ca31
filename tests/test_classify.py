"""Classification, shooting angles, and bounding regions."""

import hashlib
import random
from fractions import Fraction

import pytest

from billiardpath.classify import (
    BoundingPolygon,
    angle_bounding_polygon,
    canonical_unstable_line,
    classify_code,
    corner_boxes,
    corner_halfplanes,
    fan_angle_expansion,
    is_stable,
    line_region,
    palindromic_pivots,
    shooting_angle_sequence,
    solve_theta,
    stability_defect,
    unstable_line,
)
from billiardpath.corpus import load_default_corpus
from billiardpath.sequences import CodeSequence, all_assignments, assign_angles

import _reference
from _reference import contains_point, on_line, point_satisfies
from _worked_example import reduce_on_line

F = Fraction


def coeffs(form):
    """(ax, ay, c, t) of an integer form tuple or of an ``AffineForm``."""
    if isinstance(form, tuple):
        return form
    return form.coeffs()


def test_classification_examples():
    cases = {
        "1 1 1": "OSO",
        "1 1 2 2 5": "OSO",
        "2 2": "CNS",
        "1 2 1 2": "CNS",
        "1 2 1 6": "CNS",
        "1 1 2 1 3 2": "ONS",
        "1 1 1 1 2 1 1 1 1 2": "CS",
    }
    for text, want in cases.items():
        assert classify_code(CodeSequence.parse(text)) == want, text


def test_palindromic_pivots():
    assert palindromic_pivots(CodeSequence.parse("2 2")) == [1, 2]
    assert palindromic_pivots(CodeSequence.parse("1 2 1 6")) == [2, 4]
    assert palindromic_pivots(
        CodeSequence.parse("1 1 1 1 2 1 1 1 1 2")) == [5, 10]
    assert palindromic_pivots(CodeSequence.parse("1 1 2 1 3 2")) == []


def test_stability_defects():
    code = CodeSequence.parse("2 2")
    assert stability_defect(code, assign_angles(code, "X", "Y")) == (2, -2, 0)
    assert not is_stable(code)
    code = CodeSequence.parse("1 1 1")
    assert stability_defect(code, assign_angles(code, "X", "Y")) == (0, 0, 0)
    assert is_stable(code)
    code = CodeSequence.parse("1 2 1 6")
    assert stability_defect(code, assign_angles(code, "Y", "Z")) == (-6, 2, -2)


def test_odd_codes_always_balance():
    rng = random.Random(7)
    corpus = [e for e in load_default_corpus() if len(e.code.codes) % 2 == 1]
    for entry in rng.sample(corpus, 10):
        for asg in all_assignments(entry.code):
            assert stability_defect(entry.code, asg) == (0, 0, 0)


def test_unstable_line_from_defect():
    code = CodeSequence.parse("1 2 1 6")
    asg = assign_angles(code, "Y", "Z")
    # defect (-6, 2, -2) -> direction (-4, 4), offset 4, sign-normalized
    assert unstable_line(code, asg) == (1, -1, -1)
    code = CodeSequence.parse("1 1 1")
    assert unstable_line(code, assign_angles(code, "X", "Y")) is None


def test_canonical_unstable_lines():
    cases = {
        "2 2": (1, -1, 0),
        "1 2 1 6": (1, -1, -1),
        "1 1 2 1 3 2": (2, -1, 0),
        "1 2 1 2": (1, 1, 1),
    }
    for text, want in cases.items():
        line, asg = canonical_unstable_line(CodeSequence.parse(text))
        assert line == want, text
        assert unstable_line(CodeSequence.parse(text), asg) == want
    assert canonical_unstable_line(CodeSequence.parse("1 1 1")) is None


def test_shooting_sequence_small():
    code = CodeSequence.parse("1 2 1 6")
    asg = assign_angles(code, "Y", "Z")
    phis = shooting_angle_sequence(code, asg)
    assert [coeffs(p) for p in phis] == [
        (0, 0, 0, 1),
        (0, -1, 2, -1),
        (2, 3, -4, 1),
        (-2, -4, 6, -1),
    ]


def test_shooting_sequence_long_entry():
    # fan 6 of the doubled stable code opens at x - theta
    code = CodeSequence.parse("1 1 1 1 2 1 1 1 1 2")
    asg = assign_angles(code, "X", "Y")
    phis = shooting_angle_sequence(code, asg)
    assert coeffs(phis[5]) == (1, 0, 0, -1)


def test_fan_expansion_omits_even_middle():
    code = CodeSequence.parse("1 2 1 6")
    asg = assign_angles(code, "Y", "Z")
    fans = fan_angle_expansion(code, asg)
    assert [len(f) for f in fans] == [2, 2, 2, 6]
    last = [coeffs(f) for f in fans[3]]
    # rising j = 0..2, the exact-right-angle middle j = 3 dropped,
    # falling j = 4..6
    assert last == [
        (-2, -4, 6, -1),
        (-1, -4, 6, -1),
        (0, -4, 6, -1),
        (-2, 4, -4, 1),
        (-3, 4, -4, 1),
        (-4, 4, -4, 1),
    ]


def test_solve_theta():
    code = CodeSequence.parse("1 1 1 1 2 1 1 1 1 2")
    th = solve_theta(code, assign_angles(code, "X", "Y"))
    assert th == (1, 1, -1)

    code = CodeSequence.parse("1 1 1")
    th = solve_theta(code, assign_angles(code, "X", "Y"))
    assert th == (0, 1, 0)

    code = CodeSequence.parse("1 1 2 2 5")
    th = solve_theta(code, assign_angles(code, "Z", "Y"))
    assert th == (-3, 2, 0)

    code = CodeSequence.parse("1 2 1 6")
    th = solve_theta(code, assign_angles(code, "Y", "Z"))
    assert th == (-1, -2, 3)
    assert coeffs(reduce_on_line(_reference.AffineForm(*th), (1, -1, -1))) \
        == (-3, 0, 1, 0)

    code = CodeSequence.parse("1 1 2 1 3 2")
    for asg in all_assignments(code):
        assert solve_theta(code, asg) is None


def test_solve_theta_matches_the_rational_reference():
    # every corpus code and seeded legal codes of length 2-11, under each
    # assignment: the integer triple is the reference's halved rational
    # form, None exactly where the reference is; twice theta is never odd
    codes = [e.code for e in load_default_corpus()]
    rng = random.Random(41)
    for _ in range(3000):
        code = CodeSequence([rng.randrange(1, 10)
                             for _ in range(rng.randrange(2, 12))])
        if code.is_legal():
            codes.append(code)
    solved = 0
    for code in codes:
        for asg in all_assignments(code):
            got, want = solve_theta(code, asg), _reference.solve_theta(code,
                                                                      asg)
            if want is None:
                assert got is None, (code, asg)
                continue
            solved += 1
            assert type(got) is tuple and all(type(v) is int for v in got)
            assert (*got, 0) == want.coeffs(), (code, asg)
    assert solved > 1500


def test_solve_theta_none_without_shape():
    osno = next(e for e in load_default_corpus() if e.kind == "OSNO")
    asg = all_assignments(osno.code)[0]
    assert solve_theta(osno.code, asg) is None


def corner_bounding_polygon(code, asg):
    """Reference for ``corner_boxes``: the corner bounds 0 < n*angle < 180
    clipped to a whole polygon."""
    return BoundingPolygon(corner_halfplanes(code, asg))


def test_corner_polygon():
    code = CodeSequence.parse("1 2 1 6")
    asg = assign_angles(code, "Y", "Z")
    poly = corner_bounding_polygon(code, asg)
    assert poly.halfplanes == [
        (-1, -1, 180),  # base triangle
        (-1, 0, 30),    # 6x < 180
        (0, -1, 180),   # y < 180
        (0, 1, 0),
        (1, 0, 0),
        (1, 1, -90),    # 2z < 180: the widest corner gap spans two z angles
    ]
    # x < 30 and x + y > 90 put y above 60; YZ is the fourth assignment
    assert corner_boxes(code)[3] == poly.bbox() == (0, 60, 30, 180)


def test_corner_box_matches_the_clipped_corner_polygon():
    # every corpus plan, and seeded codes whose corner bounds are often
    # empty (a + b <= c), on which the box must be None like the clip's;
    # the six boxes of a code come from one walk, in assignment order,
    # and agree with the reference box of each assignment.  The last
    # three codes have largest fans with 1/n_X + 1/n_Y + 1/n_Z = 1: their
    # open bounds are empty, though the clip's closure is one point
    codes = [e.code for e in load_default_corpus()]
    codes += [CodeSequence.parse(t) for t in ("3 3 3", "1 2 3 6",
                                              "1 2 1 2 4 4")]
    rng = random.Random(16)
    for _ in range(600):
        codes.append(CodeSequence([rng.randrange(1, 12) for _ in
                                   range(rng.choice((3, 4, 5, 6, 8)))]))
    plans = empty = rejected = 0
    for code in codes:
        asgs = all_assignments(code)
        if not asgs:
            rejected += 1
            with pytest.raises(ValueError):
                corner_boxes(code)
            continue
        for asg, got in zip(asgs, corner_boxes(code), strict=True):
            corner = corner_bounding_polygon(code, asg)
            want = None if corner.is_empty else corner.bbox()
            assert got == _reference.corner_box(code, asg) == want, \
                (code, asg)
            empty += want is None
            plans += 1
    assert plans > 804 + 600 and empty > 100 and rejected > 100


def test_acute_polygon():
    code = CodeSequence.parse("1 1 1")
    poly = angle_bounding_polygon(code, assign_angles(code, "X", "Y"))
    assert poly.vertices == [(F(90), F(0)), (F(90), F(90)), (F(0), F(90))]
    assert contains_point(poly, F(60), F(60))
    assert not contains_point(poly, F(20), F(30))
    assert not contains_point(poly, F(90), F(45))  # boundary is excluded


CONSTANT_ANGLE = CodeSequence.parse("1 1 1 2 2")  # a constant 0 degree angle
CLIPS_TO_NOTHING = CodeSequence.parse("1 4 3 4")
EMPTY_CASES = [(CONSTANT_ANGLE, asg)
               for asg in all_assignments(CONSTANT_ANGLE)]
EMPTY_CASES.append((CLIPS_TO_NOTHING,
                    assign_angles(CLIPS_TO_NOTHING, "X", "Y")))


@pytest.mark.parametrize("code, asg", EMPTY_CASES)
def test_empty_polygon_contains_nothing(code, asg):
    poly = angle_bounding_polygon(code, asg)
    assert poly.vertices == []
    assert poly.is_empty
    assert poly.bbox() is None
    assert not contains_point(poly, 60, 60, strict=True)
    assert not contains_point(poly, 60, 60, strict=False)


def test_line_region_of_empty_polygon_has_no_segment():
    code = CLIPS_TO_NOTHING
    region = line_region(code, assign_angles(code, "X", "Y"))
    assert region.line == (1, 0, 1)
    assert region.segment is None


# (halfplanes, faces, vertices) under the first assignment; vertex order is
# part of the output, since callers seed points from the vertices in order
FROZEN_POLYGONS = {
    120: (1156, 10, [  # OSNO, theta free
        (F(1800, 17), F(960, 17)), (F(2430, 23), F(1305, 23)),
        (F(12510, 121), F(7110, 121)), (F(1960, 19), F(1120, 19)),
        (F(720, 7), F(414, 7)), (F(17100, 167), F(9900, 167)),
        (F(205, 2), F(355, 6)), (F(105), F(57)),
        (F(4545, 43), F(2430, 43))]),
    42: (34, 20, [  # CS, theta solved
        (F(1215, 11), F(585, 11)), (F(90), F(90)), (F(108), F(54))]),
}


@pytest.mark.parametrize("index", sorted(FROZEN_POLYGONS))
def test_frozen_corpus_polygons(index):
    entry = load_default_corpus()[index]
    asg = all_assignments(entry.code)[0]
    poly = angle_bounding_polygon(entry.code, asg)
    halfplanes, faces, vertices = FROZEN_POLYGONS[index]
    assert (solve_theta(entry.code, asg) is None) == (entry.kind == "OSNO")
    assert len(poly.halfplanes) == halfplanes
    assert len(poly.faces) == faces
    assert poly.vertices == vertices


# sha256 of repr((halfplanes, vertices, faces)) of every corpus entry under
# every assignment, in corpus order: any change to a number or to the order
# of a list changes it
CORPUS_POLYGON_DIGEST = \
    "bc4cf1c2c02d4a6701a50faa2a8156df73de70e567a4cec4fa291039867eea32"


def test_frozen_corpus_polygon_digest():
    digest = hashlib.sha256()
    plans = 0
    for entry in load_default_corpus():
        boxes = corner_boxes(entry.code)
        for j, asg in enumerate(all_assignments(entry.code)):
            poly = angle_bounding_polygon(entry.code, asg)
            digest.update(
                repr((poly.halfplanes, poly.vertices, poly.faces)).encode())
            plans += 1
    assert plans == 804
    assert digest.hexdigest() == CORPUS_POLYGON_DIGEST


def test_line_region_segment():
    code = CodeSequence.parse("1 2 1 2")
    line, asg = canonical_unstable_line(code)
    region = line_region(code, asg)
    assert (region.a, region.b, region.c) == (1, 1, 1)
    assert region.segment == ((F(0), F(90)), (F(90), F(0)))
    assert on_line(region, 30, 60)
    assert not on_line(region, 30, 61)


def test_corpus_classification_matches_tags():
    corpus = load_default_corpus()
    assert len(corpus) == 134
    for entry in corpus:
        assert classify_code(entry.code) == entry.kind, entry.code


def test_corpus_polygons_nonempty():
    # every plan's polygon lies inside its corner polygon, and its box in
    # the corner box: ``cover`` skips a plan whose corner box misses the
    # root square
    plans = 0
    for entry in load_default_corpus():
        boxes = corner_boxes(entry.code)
        for j, asg in enumerate(all_assignments(entry.code)):
            poly = angle_bounding_polygon(entry.code, asg)
            assert not poly.is_empty
            corner = corner_bounding_polygon(entry.code, asg)
            for vx, vy in poly.vertices:
                assert point_satisfies(corner.halfplanes, vx, vy,
                                       strict=False), (entry.code, asg)
            x0, y0, x1, y1 = poly.bbox()
            cx0, cy0, cx1, cy1 = boxes[j]
            assert cx0 <= x0 and cy0 <= y0 and x1 <= cx1 and y1 <= cy1
            plans += 1
    assert plans == 804


def test_faces_match_full_halfplane_set():
    rng = random.Random(3)
    for entry in rng.sample(load_default_corpus(), 10):
        asg = all_assignments(entry.code)[0]
        poly = angle_bounding_polygon(entry.code, asg)
        for _ in range(40):
            x = F(rng.randrange(0, 1800), 10)
            y = F(rng.randrange(0, 1800), 10)
            assert point_satisfies(poly.faces, x, y) == \
                point_satisfies(poly.halfplanes, x, y)


def reference_contains_point(poly, x, y, strict):
    """``contains_point`` in Fraction arithmetic, as it was computed before
    the homogeneous integer test."""
    if not poly.vertices:
        return False
    x, y = F(x), F(y)
    for a, b, c in poly.faces:
        v = a * x + b * y + c
        if v < 0 or (strict and v == 0):
            return False
    return True


def test_contains_point_matches_fraction_reference():
    plans = inside = 0
    for entry in load_default_corpus():
        for asg in all_assignments(entry.code):
            poly = angle_bounding_polygon(entry.code, asg)
            x0, y0, x1, y1 = poly.bbox()
            # a grid over the bounding box, its edges included
            points = [(x0 + (x1 - x0) * i / 2, y0 + (y1 - y0) * j / 2)
                      for i in range(3) for j in range(3)]
            points += poly.vertices
            # per face: the midpoint of the edge it carries, if any, and a
            # point on its line a short step off one of its vertices
            for a, b, c in poly.faces:
                on = [v for v in poly.vertices
                      if a * v[0] + b * v[1] + c == 0]
                if len(on) >= 2:
                    points.append(((on[0][0] + on[1][0]) / 2,
                                   (on[0][1] + on[1][1]) / 2))
                points.append((on[0][0] + F(b, 7), on[0][1] - F(a, 7)))
            for x, y in points:
                for strict in (True, False):
                    got = contains_point(poly, x, y, strict)
                    assert got == reference_contains_point(poly, x, y,
                                                           strict), \
                        (entry.code, x, y, strict)
                    inside += got
            plans += 1
    assert plans == 804
    assert inside > 0
