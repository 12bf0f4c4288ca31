"""Square certification, quadtree covers, the straddling-line rule, and
the thin-corner pattern families.

Margins and record contents were computed by evaluating the interval
machinery directly, cross-checked against the straightened-chain tests at
sample points, before being frozen here.
"""

from fractions import Fraction

import pytest

from billiardpath.classify import angle_bounding_polygon, classify_code
from billiardpath.corpus import load_default_corpus
from billiardpath.prover import (
    Certificate,
    CoverRecord,
    CoverResult,
    PRESETS,
    RegionSystem,
    Square,
    certify_square,
    cover,
    infinite_pattern,
    pattern_code,
    region_system,
    triple_rule,
)
from billiardpath.sequences import CodeSequence, all_assignments, assign_angles
from billiardpath.tower import test_II as pruned_band_test, unfold

F = Fraction

ORTHIC = CodeSequence([1, 1, 1])
SQUARE_REPEAT = CodeSequence([1, 2, 1, 2])


# cover([(40, 50), (80, 50), (60, 80)], [ORTHIC], max_depth=3)
MULTI_LEVEL_COVER = """\
cover 1
precision 7
max-depth 3
target 40,50 80,50 60,80
corpus-size 1
square 55 60 5 0 695673/2500000 p7
square 65 50 5 0 404243/2500000 p7
square 75 50 5 0 2077243/10000000 p7
square 65 60 5 0 695673/2500000 p7
square 75 60 5 0 207527/1250000 p7
square 55 70 5 0 2198639/10000000 p7
square 65 70 5 0 699199/5000000 p7
square 95/2 105/2 5/2 0 572161/10000000 p7
square 105/2 105/2 5/2 0 1512733/5000000 p7
square 115/2 105/2 5/2 0 1415817/2500000 p7
square 85/2 115/2 5/2 0 233519/5000000 p7
square 95/2 115/2 5/2 0 117873/400000 p7
square 95/2 125/2 5/2 0 5456217/10000000 p7
square 115/2 155/2 5/2 0 418111/2500000 p7
square 125/2 155/2 5/2 0 180693/1250000 p7
failure 85/2 105/2 5/2
summary squares=15 failures=1 min-margin=233519/5000000 max-depth-used=3 complete=no
"""


@pytest.fixture(scope="module")
def orthic():
    return region_system(ORTHIC)


@pytest.fixture(scope="module")
def repeat_zx():
    return region_system(SQUARE_REPEAT, assign_angles(SQUARE_REPEAT, "Z", "X"))


def find_line_system(code, line):
    for asg in all_assignments(code):
        rs = region_system(code, asg)
        if rs.kind == "line" and rs.line is not None \
                and rs.line.line == line and rs.line.segment is not None:
            return rs
    raise AssertionError(f"no assignment of {code} carries the line {line}")


def find_band_system(code, point):
    for asg in all_assignments(code):
        rs = region_system(code, asg)
        if rs.kind == "band" and rs.polygon.contains_point(*point):
            return rs
    raise AssertionError(f"no region of {code} contains {point}")


class TestSquare:
    def test_corners_and_children(self):
        sq = Square(10, 20, 2)
        assert sq.corners() == ((8, 18), (12, 18), (12, 22), (8, 22))
        kids = sq.children()
        assert len(kids) == 4
        assert {(k.x, k.y) for k in kids} == {(9, 19), (11, 19), (9, 21), (11, 21)}
        assert all(k.r == 1 for k in kids)

    def test_halfplanes_enclose_interior(self):
        sq = Square(F(1, 2), F(3, 2), F(1, 4))
        for a, b, c in sq.halfplanes():
            assert a * sq.x + b * sq.y + c == F(1, 4)

    def test_rejects_flat(self):
        with pytest.raises(ValueError):
            Square(1, 1, 0)


class TestRegionSystem:
    def test_orthic_compiles_to_band(self, orthic):
        assert orthic.kind == "band"
        assert not orthic.empty
        assert orthic.line is None
        assert (orthic.asg.symbol(1), orthic.asg.symbol(2)) == ("X", "Y")
        assert len(orthic.rows) == 6
        assert sorted({row[0] for row in orthic.rows}) == [False, True]
        assert orthic.den == 1
        assert orthic.atoms == (("cos", 0, 0), ("cos", 0, 2),
                                ("cos", 2, 2), ("cos", 2, 0))

    def test_unstable_compiles_to_line(self, repeat_zx):
        assert repeat_zx.kind == "line"
        assert repeat_zx.line.line == (1, 1, 1)
        assert repeat_zx.line.segment == ((F(0), F(90)), (F(90), F(0)))
        assert len(repeat_zx.rows) == 5

    def test_default_assignment_is_first_consistent(self):
        assert region_system(ORTHIC).asg == all_assignments(ORTHIC)[0]

    def test_pair_polys_positive_inside(self, orthic):
        pairs = orthic.pair_polys()
        assert len(pairs) == 9  # 3 black keys against 3 blue keys
        for f in pairs:
            assert f.eval(60, 60, 7).lo > 0


class TestCertify:
    def test_acute_point_passes(self, orthic):
        cert = certify_square(orthic, Square(60, 60, F(1, 10)))
        assert cert.passed
        assert cert.margin == F(14755653, 10 ** 7)

    def test_margin_grows_with_precision(self, orthic):
        low = certify_square(orthic, Square(60, 60, F(1, 10)), 7)
        high = certify_square(orthic, Square(60, 60, F(1, 10)), 14)
        assert high.margin == F(147556539047207, 10 ** 14)
        assert high.margin >= low.margin

    def test_wide_square_still_passes(self, orthic):
        cert = certify_square(orthic, Square(60, 60, 5))
        assert cert.passed
        assert cert.margin == F(1391347, 5000000)

    def test_obtuse_point_fails(self, orthic):
        cert = certify_square(orthic, Square(30, 20, F(1, 10)))
        assert cert.status == "fail"
        assert not cert.passed

    def test_precision_floor_enforced(self, orthic):
        with pytest.raises(ValueError):
            certify_square(orthic, Square(60, 60, F(1, 10)), 3)

    def test_line_certificate_on_segment(self, repeat_zx):
        cert = certify_square(repeat_zx, Square(30, 60, F(1, 2)))
        assert cert.passed
        assert cert.margin == F(4476401, 10 ** 7)

    def test_line_center_need_not_be_square_center(self, repeat_zx):
        cert = certify_square(repeat_zx, Square(31, 60, 2))
        assert cert.passed

    def test_line_square_too_wide(self, repeat_zx):
        assert certify_square(repeat_zx, Square(30, 60, 10)).status == \
            "indeterminate"

    def test_derivative_refinement_rescues_wide_line_square(self, repeat_zx):
        # the plain coefficient sweep cannot decide a radius-5 square on
        # the line; the local derivative bound can
        cert = certify_square(repeat_zx, Square(30, 60, 5))
        assert cert.passed
        assert cert.margin == F(453913, 10 ** 7)

    def test_derivative_refinement_rescues_tiny_margin_band(self):
        # deep quadtree square whose true margin sits below the global
        # coefficient sweep; seen while covering the 75..80 strip
        corpus = load_default_corpus()
        sq = Square(F(83484255, 4194304), F(246657195, 4194304),
                    F(65, 4194304))
        code = corpus[85].code
        for asg in all_assignments(code):
            if asg.symbol(1) + asg.symbol(2) == "ZY":
                break
        cert = certify_square(region_system(code, asg), sq, 7)
        assert cert.passed
        assert cert.margin == F(114, 10 ** 7)

    def test_line_misses_square(self, repeat_zx):
        cert = certify_square(repeat_zx, Square(10, 20, 1))
        assert cert.status == "fail"

    def test_chord_past_segment_end_fails(self, repeat_zx):
        cert = certify_square(repeat_zx, Square(F(179, 2), F(1, 2), 1))
        assert cert.status == "fail"

    def test_certified_square_agrees_with_path_test(self, orthic):
        sq = Square(60, 60, 5)
        assert certify_square(orthic, sq).passed
        for x, y in ((60, 60), (56, 61), (64, 58), (F(113, 2), F(127, 2))):
            tower = unfold(ORTHIC, orthic.asg, F(x), y=F(y))
            assert pruned_band_test(tower).passed


class TestCover:
    def test_acute_demo_single_square(self):
        res = cover(PRESETS["acute-demo"], [ORTHIC])
        assert res.complete
        assert res.square_count == 1
        assert res.max_depth_used == 0
        rec = res.records[0]
        assert rec.square == Square(60, 60, 2)
        assert rec.code_index == 0
        assert rec.margin == F(10113077, 10 ** 7)
        assert rec.precision == 7
        assert rec.letters == "XY"
        assert res.min_margin == rec.margin

    def test_split_then_cover(self):
        res = cover([(50, 50), (70, 50), (70, 70), (50, 70)], [ORTHIC])
        assert res.complete
        assert res.square_count > 1
        assert res.max_depth_used >= 1

    def test_depth_budget_reports_failures(self):
        res = cover([(50, 50), (70, 50), (70, 70), (50, 70)], [ORTHIC],
                    max_depth=0)
        assert not res.complete
        assert res.square_count == 0
        assert res.failures == (Square(60, 60, 10),)

    def test_empty_corpus_immediately_incomplete(self):
        res = cover(PRESETS["acute-demo"], [])
        assert not res.complete
        assert res.records == ()
        assert res.failures == (Square(60, 60, 2),)

    def test_line_codes_cannot_cover_area(self):
        res = cover(PRESETS["acute-demo"], [SQUARE_REPEAT])
        assert not res.complete
        assert res.records == ()

    def test_degenerate_target_rejected(self):
        with pytest.raises(ValueError):
            cover([(0, 0), (1, 1)], [ORTHIC])
        with pytest.raises(ValueError):
            cover([(0, 0), (1, 1), (2, 2)], [ORTHIC])

    def test_deterministic_across_runs(self):
        one = cover(PRESETS["acute-demo"], [ORTHIC])
        two = cover(PRESETS["acute-demo"], [ORTHIC])
        assert one == two
        assert one.to_text() == two.to_text()

    def test_multi_level_record_order(self):
        # breadth first, children in tree order: the record order of a
        # cover that splits twice, frozen byte for byte
        res = cover([(40, 50), (80, 50), (60, 80)], [ORTHIC], max_depth=3)
        assert res.to_text() == MULTI_LEVEL_COVER

    def test_unstable_codes_build_no_polygon(self, monkeypatch):
        seen = []

        def spy(code, asg):
            seen.append(code)
            return angle_bounding_polygon(code, asg)

        monkeypatch.setattr("billiardpath.prover.angle_bounding_polygon", spy)
        res = cover(PRESETS["acute-demo"], [ORTHIC, SQUARE_REPEAT])
        assert res.complete
        assert ORTHIC in seen
        assert SQUARE_REPEAT not in seen

    def test_round_trip(self, tmp_path):
        res = cover([(50, 50), (70, 50), (70, 70), (50, 70)], [ORTHIC])
        text = res.to_text()
        assert CoverResult.parse(text) == res
        path = tmp_path / "cover.txt"
        res.write(path)
        assert CoverResult.parse(path.read_text()) == res

    def test_parse_rejects_corruption(self):
        res = cover(PRESETS["acute-demo"], [ORTHIC])
        text = res.to_text()
        with pytest.raises(ValueError):
            CoverResult.parse("nonsense\n" + text)
        with pytest.raises(ValueError):
            CoverResult.parse(text.replace("summary squares=1",
                                           "summary squares=2"))
        with pytest.raises(ValueError):
            CoverResult.parse(text.rsplit("summary", 1)[0])
        with pytest.raises(ValueError):
            CoverResult.parse(text.replace(" p7", " q7"))


class TestTripleRule:
    """The seam between consecutive thin-corner family-I regions is the
    family-II line; both sides carry one inequality with the factor that
    vanishes there, which is exactly the straddling configuration."""

    @pytest.fixture(scope="class")
    def seam(self):
        r3 = find_line_system(pattern_code("II", 2), (3, 2, 2))
        r1 = find_band_system(pattern_code("I", 2), (F(142, 10), F(686, 10)))
        r2 = find_band_system(pattern_code("I", 1), (F(138, 10), F(694, 10)))
        return r1, r2, r3

    def test_closes_straddling_square(self, seam):
        r1, r2, r3 = seam
        sq = Square(14, 69, F(1, 8))
        assert triple_rule(sq, r1, r2, r3) == "pass"
        assert triple_rule(Square(14, 69, F(1, 4)), r1, r2, r3) == "pass"

    def test_side_order_does_not_matter(self, seam):
        r1, r2, r3 = seam
        assert triple_rule(Square(14, 69, F(1, 8)), r2, r1, r3) == "pass"

    def test_sides_alone_cannot_certify(self, seam):
        r1, r2, r3 = seam
        sq = Square(14, 69, F(1, 8))
        assert certify_square(r1, sq).status == "fail"
        assert certify_square(r2, sq).status == "fail"
        assert certify_square(r3, sq).passed

    def test_gradient_budget_bounds_the_square(self, seam):
        r1, r2, r3 = seam
        assert triple_rule(Square(14, 69, F(1, 2)), r1, r2, r3) == "fail"

    def test_far_square_fails(self, seam):
        r1, r2, r3 = seam
        assert triple_rule(Square(70, 40, 1), r1, r2, r3) == "fail"

    def test_square_past_segment_end_fails(self, seam):
        r1, r2, r3 = seam
        sq = Square(F(449, 10), F(45, 2), 1)
        assert triple_rule(sq, r1, r2, r3) == "fail"

    def test_unrelated_line_not_applicable(self, seam):
        r1, r2, _ = seam
        other = find_line_system(SQUARE_REPEAT, (1, 1, 1))
        sq = Square(14, 69, F(1, 8))
        assert triple_rule(sq, r1, r2, other) == "not-applicable"

    def test_band_system_as_line_not_applicable(self, seam):
        r1, r2, _ = seam
        assert triple_rule(Square(14, 69, F(1, 8)), r1, r2, r1) == \
            "not-applicable"


class TestInfinitePattern:
    def test_family_two_on_the_line(self):
        hit = infinite_pattern(10, 80)
        kind, n, code = hit
        assert (kind, n) == ("II", 1)
        assert code.codes == (1, 2, 1, 2)

    def test_family_two_long(self):
        hit = infinite_pattern(4, 70)
        assert (hit.kind, hit.n) == ("II", 9)
        assert hit.code.codes == (1, 2, 1, 18)

    def test_family_one_between_lines(self):
        hit = infinite_pattern(10, 72)
        assert (hit.kind, hit.n) == ("I", 2)
        assert hit.code.codes == (1, 1, 5, 1, 2, 1, 5, 1, 1, 10)

    def test_gap_without_pattern(self):
        assert infinite_pattern(5, F(171, 2)) is None

    def test_width_boundary_excluded(self):
        assert infinite_pattern(F(45, 2), 65) is None

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            infinite_pattern(0, 50)
        with pytest.raises(ValueError):
            infinite_pattern(100, 80)

    def test_pattern_codes_are_legal(self):
        for n in range(1, 6):
            assert classify_code(pattern_code("I", n)) == "CS"
            assert classify_code(pattern_code("II", n)) == "CNS"

    def test_pattern_code_validation(self):
        with pytest.raises(ValueError):
            pattern_code("I", 0)
        with pytest.raises(ValueError):
            pattern_code("III", 1)

    def test_family_regions_certify(self):
        # an on-line point of family II and an interior point of family I,
        # each certified by its own code's system
        hit2 = infinite_pattern(14, 69)
        assert (hit2.kind, hit2.n) == ("II", 2)
        line_sys = find_line_system(hit2.code, (3, 2, 2))
        assert certify_square(line_sys, Square(14, 69, F(1, 8))).passed

        hit1 = infinite_pattern(14, 66)
        assert (hit1.kind, hit1.n) == ("I", 2)
        band_sys = find_band_system(hit1.code, (14, 66))
        cert = certify_square(band_sys, Square(14, 66, F(1, 16)))
        assert cert.passed
        assert cert.margin == F(722183, 5000000)
