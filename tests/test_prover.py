"""Square certification, quadtree covers, the straddling-line rule, and
the thin-corner pattern families.

Margins and record contents were computed by evaluating the interval
machinery directly, cross-checked against the straightened-chain tests at
sample points, before being frozen here.
"""

import collections
import gc
import hashlib
import random
import types
from fractions import Fraction

import pytest

from billiardpath import classify, geometry, numeric, prover
from billiardpath.classify import (angle_bounding_polygon, classify_code,
                                   corner_boxes)
from billiardpath.corpus import load_default_corpus
from billiardpath.geometry import (clip_polygon, polygon_area2, polygon_bbox,
                                   segment_midpoint, to_homogeneous)
from billiardpath.numeric import (atom_bounds, dot_bounds, gradient_sum,
                                  pi_enclosure, sin_scaled)
from billiardpath.prover import (
    CENTER_FAILS,
    NO_PRECISION_PASSES,
    Certificate,
    CoverRecord,
    CoverResult,
    PRESETS,
    RegionSystem,
    Square,
    _box,
    _chord_in_square,
    _cover_node,
    _cover_plans,
    _inside,
    _meets,
    _walls,
    certify_square,
    cover,
    infinite_pattern,
    pattern_code,
    region_system,
    triple_rule,
)
from billiardpath.sequences import CodeSequence, all_assignments, assign_angles
from billiardpath.tower import (BLACK, pruned_key_points, symbolic_tower,
                                test_II as pruned_band_test, unfold)

import _reference

F = Fraction

ORTHIC = CodeSequence([1, 1, 1])
SQUARE_REPEAT = CodeSequence([1, 2, 1, 2])
# x in [30, 35] of the strip between x + y = 75 and x + y = 80
STRIP_SLICE = [(F(30), F(45)), (F(35), F(40)), (F(35), F(45)), (F(30), F(50))]
# x in [23/2, 12], y in [257/4, 129/2], covered against five corpus codes
DEEP_BOX = [(F(23, 2), F(257, 4)), (F(12), F(257, 4)), (F(12), F(129, 2)),
            (F(23, 2), F(129, 2))]
DEEP_CODES = (21, 43, 90, 91, 100)


def thin_target():
    """x in [10, 12] of the ``strip-75-80`` preset."""
    target = list(PRESETS["strip-75-80"])
    for hp in ((1, 0, -10), (-1, 0, 12)):
        target = clip_polygon(target, hp)
    return target


def _ceil_times(q, k):
    return -((-k * q.numerator) // q.denominator)


def _floor_times(q, k):
    return k * q.numerator // q.denominator


def reference_derivatives(terms):
    """d/dx and d/dy of ((kind, m, n), c) terms in degree units, times
    180/pi, each as (terms, gradient sum): c*sin(m*x + n*y) gives
    c*m * cos(m*x + n*y), the angle arguments kept and the kinds swapped,
    and zero products are dropped."""
    parts = []
    for sel in (1, 2):  # m for d/dx, n for d/dy
        dterms = []
        for key, c in terms:
            k, m, n = key
            f = key[sel]
            if f:
                dterms.append((("cos", m, n), c * f) if k == "sin"
                              else (("sin", m, n), -c * f))
        parts.append((tuple(dterms), gradient_sum(dterms)))
    return tuple(parts)


def reference_row(is_black, terms):
    """A row (is_black, terms, g, parts) of ((kind, m, n), c) ``terms``:
    ``g`` their gradient sum and ``parts`` their
    ``reference_derivatives``."""
    terms = tuple(terms)
    return is_black, terms, gradient_sum(terms), reference_derivatives(terms)


_REFERENCE_ROWS = {}


def reference_rows(system):
    """The system's scores as ``reference_row`` rows, rebuilt from its
    symbolic tower without its compiled table, the terms scaled to
    ``system.den``; a ``band_system``'s rows are its given terms."""
    if system not in _REFERENCE_ROWS:
        sym = symbolic_tower(system.code, system.asg)
        rows = []
        for p in pruned_key_points(sym):
            sp = sym.score_poly(p)
            rows.append(reference_row(p.color == BLACK, (
                (key, c * (system.den // sp.den))
                for key, c in sorted(sp.coeffs.items()))))
        sym._scores.clear()
        _REFERENCE_ROWS[system] = tuple(rows)
    return _REFERENCE_ROWS[system]


def band_system(rows, den):
    """A band system of (is_black, terms) ``rows`` over ``den`` whose
    polygon has no faces, so that it holds every square."""
    polygon = types.SimpleNamespace(faces=(), vertices=((0, 0),),
                                    is_empty=False)
    system = RegionSystem(None, None, "band", polygon, None, rows, den)
    _REFERENCE_ROWS[system] = tuple(reference_row(*row) for row in rows)
    return system


def zy_system(index):
    """The region system of a default-corpus code under assignment ZY."""
    code = load_default_corpus()[index].code
    asg = [a for a in all_assignments(code)
           if a.symbol(1) + a.symbol(2) == "ZY"][0]
    return region_system(code, asg)


def reference_pair_polys(system):
    """``pair_polys`` as defined on the symbolic tower: the black-minus-blue
    differences of the pruned key points' score polynomials."""
    sym = symbolic_tower(system.code, system.asg)
    keys = pruned_key_points(sym)
    blacks = [sym.score_poly(p) for p in keys if p.color == BLACK]
    blues = [sym.score_poly(p) for p in keys if p.color != BLACK]
    sym._scores.clear()
    return [bk - bl for bk in blacks for bl in blues]


def term_bounds(terms, X, Y, W, precision, cache):
    """Integer bounds of ((kind, m, n), c) terms at (X/W, Y/W)."""
    bounds = atom_bounds([key for key, _ in terms], X, Y, W, precision,
                         cache)
    return dot_bounds(enumerate(c for _, c in terms), bounds)


def reference_certify(system, square, precision=7, gate=False):
    """``certify_square`` as it was before its float screen and retry gate:
    every verdict from the exact integers alone.  With ``gate``, an
    indeterminate square that the integer retry gate marks gets the note
    ``NO_PRECISION_PASSES`` (see ``reference_gate``)."""
    if system.empty:
        return Certificate("fail", note="empty region")
    if system.kind == "band":
        for cx, cy in square.corners():
            if not _reference.contains_point(system.polygon, cx, cy):
                return Certificate("fail", note="outside the code's polygon")
        center = (square.x, square.y)
    else:
        chord = _chord_in_square(system, square)
        if chord is None:
            return Certificate("fail", note="line misses the square")
        center = segment_midpoint(chord)
    scale = 10 ** precision
    X, Y, W = to_homogeneous(center)
    cache = {}
    base = pi_enclosure(precision).hi / 180 * square.r * scale
    black_min = blue_max = None
    black_hi_min = blue_lo_max = None
    evals = []
    rows = reference_rows(system)
    for is_black, terms, g, _ in rows:
        lo, hi = term_bounds(terms, X, Y, W, precision, cache)
        bump = _ceil_times(base, g)
        evals.append((is_black, lo, hi, bump))
        if is_black:
            swept = lo - bump
            if black_min is None or swept < black_min:
                black_min = swept
            if black_hi_min is None or hi < black_hi_min:
                black_hi_min = hi
        else:
            swept = hi + bump
            if blue_max is None or swept > blue_max:
                blue_max = swept
            if blue_lo_max is None or lo > blue_lo_max:
                blue_lo_max = lo
    if black_min is None or blue_max is None:
        raise ValueError("system lacks one of the two colors")
    if black_min > blue_max:
        margin = Fraction(black_min - blue_max, system.den * scale)
        return Certificate("pass", margin)
    if black_hi_min <= blue_lo_max:
        return Certificate("fail", note="center fails the turning test")
    rad = pi_enclosure(precision).hi / 180 * square.r
    rad_lo = pi_enclosure(precision).lo / 180 * square.r
    black_min = blue_max = None
    reach = []
    for (is_black, lo, hi, bump), row in zip(evals, rows):
        sup = dist = 0
        for dterms, g2 in row[3]:
            dlo, dhi = term_bounds(dterms, X, Y, W, precision, cache)
            sup += max(abs(dlo), abs(dhi)) + _ceil_times(base, g2)
            dist += max(dlo, -dhi, 0) + _floor_times(rad_lo * scale, g2)
        bump2 = min(bump, _ceil_times(rad, sup))
        bump_lo = min(_floor_times(rad_lo * scale, row[2]),
                      _floor_times(rad_lo, dist))
        reach.append((is_black, hi - bump_lo if is_black else lo + bump_lo))
        if is_black:
            swept = lo - bump2
            if black_min is None or swept < black_min:
                black_min = swept
        else:
            swept = hi + bump2
            if blue_max is None or swept > blue_max:
                blue_max = swept
    if black_min > blue_max:
        margin = Fraction(black_min - blue_max, system.den * scale)
        return Certificate("pass", margin)
    black_reach = min(v for b, v in reach if b)
    blue_reach = max(v for b, v in reach if not b)
    if gate and black_reach <= blue_reach:
        return Certificate("indeterminate", note=NO_PRECISION_PASSES)
    return Certificate("indeterminate")


def reference_gate(system, square, precision):
    """Whether the integer retry gate, a proof on this precision's exact
    sums that no precision passes, marks the square: both sweeps leave it
    indeterminate, and min over black rows of (hi - L) is at most max over
    blue rows of (lo + L), L the smaller of floor(rho * g) and
    floor(rho * d / 10^precision), rho = r * pi_lo/180 * 10^precision and
    d summing over both derivative parts their bounds' distance from 0
    plus floor(rho * g2)."""
    cert = reference_certify(system, square, precision, gate=True)
    return cert.note == NO_PRECISION_PASSES


def traced_cover(target, codes):
    """Run ``cover`` with counting wrappers around ``certify_square`` and
    its three float filters; returns the result, every certify call as
    (system, square, precision, certificate), and the filters' verdicts
    counted by (filter name, verdict).  Every witness "fail" is also put
    to the full screen, whose verdict is counted under ("full screen on a
    witness fail", verdict) without touching the system's witness."""
    calls, screened = [], collections.Counter()
    real_certify = prover.certify_square
    real_center_fails = prover._center_fails
    real_witness = prover._witness_fails

    def certify(system, square, precision=7, memo=None):
        cert = real_certify(system, square, precision, memo)
        calls.append((system, square, precision, cert))
        return cert

    def counting(name, real):
        def wrapper(*args):
            got = real(*args)
            screened[name, got] += 1
            return got
        return wrapper

    def witness(system, X, Y, W, precision):
        got = real_witness(system, X, Y, W, precision)
        screened["_witness_fails", got] += 1
        if got:
            kept = system.witness
            _, values = prover._center_floats(system, X, Y, W)
            full = real_center_fails(system, values, precision)
            screened["full screen on a witness fail", full] += 1
            system.witness = kept
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prover, "certify_square", certify)
        for name in ("_center_fails", "_hopeless"):
            mp.setattr(prover, name, counting(name, getattr(prover, name)))
        mp.setattr(prover, "_witness_fails", witness)
        result = cover(target, codes)
    return result, calls, screened


@pytest.fixture(scope="module")
def deep_run():
    corpus = load_default_corpus()
    return traced_cover(DEEP_BOX, [corpus[i] for i in DEEP_CODES])


@pytest.fixture(scope="module")
def thin_run():
    return traced_cover(thin_target(), load_default_corpus())


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
        if rs.kind == "band" and _reference.contains_point(rs.polygon,
                                                           *point):
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

    def test_children_keep_integers_and_equal_built_squares(self):
        parent = Square(F(3, 4), F(5, 4), F(1, 2))
        kid = parent.children()[2]
        # W doubles and R stays: (4, 12, 2, 8) is not in lowest terms
        assert (kid.X, kid.Y, kid.R, kid.W) == (4, 12, 2, 8)
        built = Square(F(1, 2), F(3, 2), F(1, 4))
        assert (built.X, built.Y, built.R, built.W) == (2, 6, 1, 4)
        assert kid == built and hash(kid) == hash(built)
        assert {kid: 1}[built] == 1
        assert (kid.x, kid.y, kid.r) == (F(1, 2), F(3, 2), F(1, 4))
        assert repr(kid) == repr(built) == "Square(1/2, 3/2, r=1/4)"


def spread_squares(seed, count=300):
    """Seeded squares reached through ``children`` under the root that
    ``cover`` builds over each preset, so W is never reduced, and squares
    with a corner on each preset vertex and edge midpoint, which touch its
    edges exactly."""
    rng = random.Random(seed)
    out = []
    for target in PRESETS.values():
        x0, y0, x1, y1 = polygon_bbox(target)
        root = Square((x0 + x1) / 2, (y0 + y1) / 2,
                      max(x1 - x0, y1 - y0) / 2)
        for _ in range(count):
            sq = root
            for _ in range(rng.randrange(12)):
                sq = rng.choice(sq.children())
            out.append(sq)
        ring = list(target)
        points = ring + [((px + qx) / 2, (py + qy) / 2) for (px, py), (qx, qy)
                         in zip(ring, ring[1:] + ring[:1])]
        for px, py in points:
            for r in (F(1, 4), F(3)):
                out += [Square(px + sx * r, py + sy * r, r)
                        for sx in (-1, 1) for sy in (-1, 1)]
    return out


class TestSpreadRule:
    """``Square.spread`` against Fraction references on the corners."""

    def test_spread_is_the_range_over_the_corners(self):
        rng = random.Random(3)
        for sq in spread_squares(3, 40):
            a, b = rng.randrange(-9, 10), rng.randrange(-9, 10)
            c = rng.randrange(-2000, 2000)
            lo, hi = sq.spread(a, b, c)
            vals = [a * x + b * y + c for x, y in sq.corners()]
            assert (F(lo, sq.W), F(hi, sq.W)) == (min(vals), max(vals))

    def test_containment_matches_the_corner_reference(self):
        corpus = load_default_corpus()
        polys = [angle_bounding_polygon(corpus[i].code, asg)
                 for i in DEEP_CODES + (2, 40, 100)
                 for asg in all_assignments(corpus[i].code)]
        polys = [poly for poly in polys if not poly.is_empty]
        squares = spread_squares(5, 200)
        # and squares with a corner on a polygon vertex, inside or out
        for poly in polys:
            for px, py in poly.vertices:
                squares += [Square(px + sx * F(1, 8), py + sy * F(1, 8),
                                   F(1, 8)) for sx in (-1, 1)
                            for sy in (-1, 1)]
        seen = collections.Counter()
        for poly in polys:
            for sq in squares:
                want = all(_reference.contains_point(poly, x, y)
                           for x, y in sq.corners())
                assert _inside(sq, poly.faces) == want, (poly, sq)
                seen[want] += 1
        assert seen[True] > 50 and seen[False] > 1000, seen

    def test_box_rule_matches_the_corner_reference(self):
        corpus = load_default_corpus()
        boxes = [angle_bounding_polygon(corpus[i].code, asg).bbox()
                 for i in DEEP_CODES
                 for asg in all_assignments(corpus[i].code)]
        boxes = [b for b in boxes if b is not None]
        boxes += [polygon_bbox(target) for target in PRESETS.values()]
        seen = collections.Counter()
        for x0, y0, x1, y1 in boxes:
            for sq in spread_squares(9, 60):
                want = (sq.x - sq.r <= x1 and x0 <= sq.x + sq.r
                        and sq.y - sq.r <= y1 and y0 <= sq.y + sq.r)
                assert _meets(sq, _box((x0, y0, x1, y1))) == want
                seen[want] += 1
        assert seen[True] > 100 and seen[False] > 100, seen

    def test_overlap_matches_the_clip_reference(self):
        seen = collections.Counter()
        for target in list(PRESETS.values()) + [thin_target()]:
            walls = _walls(target)
            for sq in spread_squares(11):
                piece = list(target)
                for hp in sq.halfplanes():
                    piece = clip_polygon(piece, hp)
                want = len(piece) >= 3 and polygon_area2(piece) != 0
                got = all(sq.spread(a, b, c)[1] > 0 for a, b, c in walls)
                assert got == want, (target, sq)
                seen["touch" if piece and not want else want] += 1
        assert seen[True] > 200 and seen[False] > 200, seen
        assert seen["touch"] > 20, seen


class TestRegionSystem:
    def test_orthic_compiles_to_band(self, orthic):
        assert orthic.kind == "band"
        assert not orthic.empty
        assert orthic.line is None
        assert (orthic.asg.symbol(1), orthic.asg.symbol(2)) == ("X", "Y")
        assert len(orthic.rows) == 6
        assert sorted({row.is_black for row in orthic.rows}) == [False, True]
        assert orthic.den == 1
        assert set(orthic.atoms) == {
            ("cos", 0, 0), ("cos", 0, 2), ("cos", 2, 2), ("cos", 2, 0)}
        for row in orthic.rows:
            assert all(isinstance(c, int) and c for _, c in row.terms)
            assert row.g == sum(abs(c) * (abs(m) + abs(n))
                                for i, c in row.terms
                                for _, m, n in [orthic.atoms[i]])

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

    def test_pair_polys_rebuild_the_tower_scores(self):
        # every corpus plan up to length 30: the differences of the scores
        # rebuilt from the compiled rows are the tower's own
        plans = [(e.code, asg) for e in load_default_corpus()
                 if len(e.code) <= 30 for asg in all_assignments(e.code)]
        assert len(plans) == 492
        for code, asg in plans:
            system = region_system(code, asg)
            assert system.pair_polys() == reference_pair_polys(system), \
                (code, asg)

    @pytest.mark.parametrize("text, kind", [("1 1 1 2 2", "band"),
                                            ("1 4 3 4", "line")])
    def test_empty_region_claims_nothing(self, text, kind):
        code = CodeSequence.parse(text)
        system = region_system(code, assign_angles(code, "X", "Y"))
        assert (system.kind, system.empty) == (kind, True)
        if kind == "line":
            assert system.line.segment is None
        cert = certify_square(system, Square(60, 60, 1))
        assert (cert.status, cert.note) == ("fail", "empty region")


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

    @pytest.mark.parametrize("r, want", [
        (F(1, 2), ("pass", F(406109, 10 ** 8))),
        (1, ("pass", F(3604163, 10 ** 9))),
        (2, ("pass", F(1776457, 10 ** 9))),
        (3, ("indeterminate", None)),
    ])
    def test_derivative_sweep_reads_the_sign_of_cosine_terms(self, r, want):
        # no compiled row of a corpus plan mixes sine and cosine atoms
        # (apart from the constant), so negating every cosine's derivative
        # terms negates whole parts, which the sweep reads only by their
        # distance from 0: no code's square sees that sign.  This row pair
        # does: the black row sin(x) + cos(x) against the blue constant
        # 1.41, at x = 45, where the black derivative cos(x) - sin(x)
        # vanishes.  The coefficient sweep's bump, 2r * pi/180, is above
        # the center gap sqrt(2) - 1.41 for every r here, and the
        # derivative sweep's, about 2 * (r * pi/180)^2, is below it up to
        # r = 2; read with +sin(x) as the cosine's derivative, the bump
        # would be about sqrt(2) * r * pi/180 and no r here could pass
        polygon = types.SimpleNamespace(faces=(), is_empty=False)
        rows = ((True, ((("cos", 1, 0), 100), (("sin", 1, 0), 100))),
                (False, ((("cos", 0, 0), 141),)))
        system = RegionSystem(None, None, "band", polygon, None, rows, 100)
        cert = certify_square(system, Square(45, 30, r), 7)
        assert (cert.status, cert.margin) == want

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

    @pytest.mark.parametrize("codes", [[], [ORTHIC]])
    @pytest.mark.parametrize("kwargs, message", [
        ({"precision": 3}, "precision 3 below minimum 7"),
        ({"max_depth": -1}, "negative max_depth -1"),
    ])
    def test_arguments_no_record_can_hold_rejected(self, codes, kwargs,
                                                   message):
        # with or without candidates, before any square is certified
        with pytest.raises(ValueError, match=message):
            cover(PRESETS["acute-demo"], codes, **kwargs)

    @pytest.mark.parametrize("target, message", [
        # a dart: the vertex 60,55 is reflex
        ([(50, 50), (70, 50), (60, 55), (70, 70), (50, 70)], "not convex"),
        # a pentagram: every turn is a left turn, yet the edges cross
        ([(60, 50), (66, 68), (50, 57), (70, 57), (54, 68)], "not convex"),
        ([(50, 50), (70, 50), (70, 50), (70, 70), (50, 70)], "repeats"),
        ([(50, 50), (70, 50), (70, 70), (50, 70), (50, 50)], "repeats"),
    ])
    def test_nonconvex_target_rejected(self, target, message):
        with pytest.raises(ValueError, match=message):
            cover(target, [ORTHIC])
        with pytest.raises(ValueError, match=message):
            cover(target[::-1], [ORTHIC])

    def test_collinear_vertex_accepted(self):
        square = [(50, 50), (70, 50), (70, 70), (50, 70)]
        res = cover(square[:1] + [(60, 50)] + square[1:], [ORTHIC])
        assert res.complete
        assert res.records == cover(square, [ORTHIC]).records

    def test_frozen_incomplete_cover_digest(self):
        # the whole strip-75-80 preset against the five codes of the deep
        # box, cut at depth 6: many failures along slanted target edges,
        # frozen as a sha256 while every node was still clipped in Fractions
        corpus = load_default_corpus()
        res = cover(PRESETS["strip-75-80"], [corpus[i] for i in DEEP_CODES],
                    max_depth=6)
        assert not res.complete
        assert (res.square_count, len(res.failures), res.max_depth_used) == \
            (2, 140, 6)
        assert hashlib.sha256(res.to_text().encode()).hexdigest() == \
            "ae6ffe9fc408d58f16dd428eee38ac6eaa5f6ecac3c28f6c2cf41e9f21d541ea"

    def test_quadtree_runs_on_integers(self, monkeypatch):
        # after setup, no node is clipped, tested corner by corner or
        # converted to a homogeneous triple: the prover's own calls of
        # to_homogeneous and polygon_area2 all take the target, and all
        # come before the first certification
        corpus = load_default_corpus()
        calls = collections.defaultdict(list)
        phase = ["setup"]

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name].append((phase[0], args))
                return real(*args, **kwargs)
            return wrapper

        for module in (geometry, classify, prover):
            if hasattr(module, "clip_polygon"):
                monkeypatch.setattr(module, "clip_polygon", counting(
                    "clip_polygon", module.clip_polygon))
        for name in ("to_homogeneous", "polygon_area2"):
            monkeypatch.setattr(prover, name,
                                counting(name, getattr(prover, name)))
        monkeypatch.setattr(Square, "corners",
                            counting("corners", Square.corners))
        real_certify = prover.certify_square

        def certify(*args):
            phase[0] = "tree"
            return real_certify(*args)

        monkeypatch.setattr(prover, "certify_square", certify)
        res = cover(DEEP_BOX, [corpus[i] for i in DEEP_CODES])
        assert res.square_count == 141
        assert phase == ["tree"]
        for name in ("clip_polygon", "corners"):
            assert not calls[name], name
        assert [args for _, args in calls["to_homogeneous"]] == \
            [(v,) for v in DEEP_BOX]
        assert calls["polygon_area2"]
        for when, args in calls["to_homogeneous"] + calls["polygon_area2"]:
            assert when == "setup"
        for _, (vertices,) in calls["polygon_area2"]:
            assert vertices == DEEP_BOX

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

    def test_frozen_deep_cover_digest(self):
        # x in [23/2, 12], y in [257/4, 129/2] against five corpus codes:
        # a six-level, 141-square cover whose text (every center, margin
        # and precision) was frozen as a sha256 before the enclosures and
        # corner tests moved to integer arithmetic
        corpus = load_default_corpus()
        res = cover([(F(23, 2), F(257, 4)), (F(12), F(257, 4)),
                     (F(12), F(129, 2)), (F(23, 2), F(129, 2))],
                    [corpus[i] for i in (21, 43, 90, 91, 100)])
        assert res.complete
        assert res.square_count == 141
        assert hashlib.sha256(res.to_text().encode()).hexdigest() == \
            "0df454ee77399ac082dfc77cc57b5c0be0e4ea7d65bca7c95c2fba1843fdaab9"

    def test_frozen_strip_cover_digest(self):
        # x in [30, 35] of the strip between x + y = 75 and x + y = 80
        # against every other corpus code: a 25-square cover whose text
        # was frozen as a sha256 while every plan was still compiled
        corpus = load_default_corpus()
        res = cover(STRIP_SLICE, [corpus[i] for i in range(0, 134, 2)])
        assert res.complete
        assert res.square_count == 25
        assert hashlib.sha256(res.to_text().encode()).hexdigest() == \
            "a4c4c18f2e00b6c16c47a3d2fb32b3cd03963f15725b880b5d1061081154b93f"

    def test_frozen_thin_cover_digest(self, thin_run):
        # x in [10, 12] of strip-75-80 against all 134 codes: a 479-square,
        # nine-level cover whose certify calls split like the full strip's
        # (center fails, indeterminate, pass), frozen as a sha256 before
        # the float screen and the retry gate
        res, calls, screened = thin_run
        assert res.complete
        assert res.square_count == 479
        assert res.max_depth_used == 9
        assert hashlib.sha256(res.to_text().encode()).hexdigest() == \
            "69c727662089aace5335a977ff87ed320508eeff90af6d158946982829f0493f"
        outcomes = collections.Counter((p, c.status, c.note)
                                       for _, _, p, c in calls)
        assert outcomes[(7, "fail", CENTER_FAILS)] == 1670
        assert screened["_witness_fails", True] + \
            screened["_center_fails", True] == 1670
        assert outcomes[(7, "pass", "")] == 479
        assert outcomes[(7, "indeterminate", NO_PRECISION_PASSES)] == 516
        assert not [c for c in calls if c[2] != 7]

    def test_level_memo_cuts_kernel_calls(self, monkeypatch):
        # the deep box: 5603 kernel calls with the memo withheld, at most
        # 4600 with it, the same records either way; a level's first
        # certify call meets an empty memo, at either precision, so the
        # memo never outgrows one level
        corpus = load_default_corpus()
        codes = [corpus[i] for i in DEEP_CODES]
        kernel_calls, real_kernel = [0], numeric._sin_folded

        def kernel(*args):
            kernel_calls[0] += 1
            return real_kernel(*args)

        real_certify, seen, share = prover.certify_square, [], [True]

        def certify(system, square, precision=7, memo=None):
            seen.append((square.W, precision, len(memo)))
            return real_certify(system, square, precision,
                                memo if share[0] else None)

        monkeypatch.setattr(numeric, "_sin_folded", kernel)
        monkeypatch.setattr(prover, "certify_square", certify)
        share[0] = False
        plain = cover(DEEP_BOX, codes)
        assert kernel_calls == [5603]
        kernel_calls[0], share[0], seen[:] = 0, True, []
        res = cover(DEEP_BOX, codes)
        assert kernel_calls[0] <= 4600
        assert res.to_text() == plain.to_text()
        first = {}
        for W, precision, size in seen:
            first.setdefault((W, precision), size)
        assert len({W for W, _ in first}) == 7
        assert set(first.values()) == {0}

    def test_retry_at_double_precision_certifies(self):
        # a square of the full strip-75-80 cover that only passes at 14
        # digits, covered on its own: the retry gets its own kernel cache
        corpus = load_default_corpus()
        sq = Square(F(48595, 4096), F(264375, 4096), F(65, 4096))
        res = cover(sq.corners(), [corpus[91]])
        assert res.complete
        assert [(r.square, r.margin, r.precision) for r in res.records] == \
            [(sq, F(47382509, 50000000000000), 14)]

    def test_only_plans_meeting_the_root_are_compiled(self, monkeypatch):
        seen = set()

        def spy(code, asg):
            seen.add((tuple(code.codes), asg.symbol(1), asg.symbol(2)))
            return angle_bounding_polygon(code, asg)

        def assign_spy(code, first, second):
            built.append((tuple(code.codes), first, second))
            return assign_angles(code, first, second)

        built = []
        monkeypatch.setattr("billiardpath.prover.angle_bounding_polygon", spy)
        monkeypatch.setattr("billiardpath.prover.assign_angles", assign_spy)
        corpus = load_default_corpus()
        res = cover(STRIP_SLICE, [corpus[i] for i in range(0, 134, 2)])
        assert res.complete
        # of the 402 stable plans, only the 9 whose corner box meets the
        # root square get an assignment and a compiled polygon
        assert len(seen) == 9
        assert sorted(built) == sorted(seen)

    @pytest.mark.parametrize("target, step", [
        (STRIP_SLICE, 2), (PRESETS["strip-75-80"], 1),
        (PRESETS["strip-112.3"], 1), (PRESETS["acute-demo"], 1)],
        ids=["strip-slice", "strip-75-80", "strip-112.3", "acute-demo"])
    def test_plans_match_one_assignment_at_a_time(self, target, step):
        # the six corner boxes of one walk give the plan list (keys, order,
        # polygons, boxes) that six assignments and six corner boxes per
        # code gave, and an assignment only to the plans meeting the root
        codes = [e.code for e in load_default_corpus()[::step]]
        root = root_square(target)
        plans, asgs = _cover_plans(codes, root)
        want = _reference.cover_plans(codes, root)
        assert [(key, poly.halfplanes, box) for key, poly, box in plans] \
            == [(key, poly.halfplanes, box) for key, poly, box in want]
        assert {key for key, _, _ in plans} <= set(asgs)
        for (i, j), asg in asgs.items():
            assert asg == all_assignments(codes[i])[j]
            assert _meets(root, _box(corner_boxes(codes[i])[j]))

    @pytest.mark.parametrize("preset",
                             ["strip-75-80", "strip-112.3", "acute-demo"])
    def test_corner_gate_skips_only_unreachable_plans(self, preset):
        root = root_square(PRESETS[preset])
        skipped = 0
        for entry in load_default_corpus():
            boxes = corner_boxes(entry.code)
            for asg, outer in zip(all_assignments(entry.code), boxes):
                if outer is not None and _meets(root, _box(outer)):
                    continue
                skipped += 1
                poly = angle_bounding_polygon(entry.code, asg)
                if poly.is_empty:
                    continue
                # the polygon's box misses the root, compared in Fractions
                bx0, by0, bx1, by1 = poly.bbox()
                assert (bx1 < root.x - root.r or root.x + root.r < bx0
                        or by1 < root.y - root.r or root.y + root.r < by0), \
                    (entry.code, asg)
        assert skipped > 0

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
        summary = text.rsplit("summary", 1)[0] + \
            "summary squares=0 failures=0\n"
        with pytest.raises(ValueError):
            CoverResult.parse(summary)
        # a zero denominator is bad input, reported with its line
        lines = text.splitlines()
        assert lines[3].startswith("target ")
        assert lines[5].startswith("square ")
        # so are a target no cover writes, with fewer than 3 vertices, and
        # a vertex that is not x,y
        for i, bad in ((3, "target 0/0,0 1,0 0,1"),
                       (3, "target 58,58 62,58"),
                       (3, "target 58,58 62,58,1 62,62"),
                       (3, "target 58 62,58 62,62"),
                       (5, "square 1/4 1/0 1/8 0 1 p7")):
            corrupt = "\n".join(lines[:i] + [bad] + lines[i + 1:]) + "\n"
            with pytest.raises(ValueError, match="cover line"):
                CoverResult.parse(corrupt)
        # fields no cover writes, and integers that do not parse, are
        # reported with their line
        three = text.replace("corpus-size 1", "corpus-size 3")
        square = [ln for ln in lines if ln.startswith("square ")][0]
        _, x, y, r, index, margin, tag = square.split()
        assert (index, tag) == ("0", "p7")
        for bad in (f"square {x} {y} {r} -1 {margin} p7",
                    f"square {x} {y} {r} 5 {margin} p7",
                    f"square {x} {y} {r} x {margin} p7",
                    f"square {x} {y} {r} 0 0 p7",
                    f"square {x} {y} {r} 0 -{margin} p7",
                    f"square {x} {y} {r} 0 {margin} p3",
                    f"square {x} {y} {r} 0 {margin} px"):
            with pytest.raises(ValueError, match="cover line"):
                CoverResult.parse(three.replace(square, bad))
        assert CoverResult.parse(three.replace(
            square, f"square {x} {y} {r} 2 {margin} p7")).records[0] \
            .code_index == 2
        for bad in ("summary squares=x", "summary complete"):
            with pytest.raises(ValueError, match="cover line"):
                CoverResult.parse(text.replace("summary squares=1", bad))
        for bad in ("precision 3", "precision seven"):
            with pytest.raises(ValueError, match="cover line"):
                CoverResult.parse(text.replace("precision 7", bad))
        with pytest.raises(ValueError,
                           match="negative max-depth in cover line "
                                 "'max-depth -1'"):
            CoverResult.parse(text.replace("max-depth 20", "max-depth -1"))

    def test_parse_names_the_line_of_a_nonpositive_half_side(self):
        text = cover(PRESETS["acute-demo"], [ORTHIC]).to_text()
        square = [ln for ln in text.splitlines()
                  if ln.startswith("square ")][0]
        _, x, y, r, index, margin, tag = square.split()
        bad = f"square {x} {y} 0 {index} {margin} {tag}"
        with pytest.raises(ValueError,
                           match=f"nonpositive half side in cover line "
                                 f"'{bad}'"):
            CoverResult.parse(text.replace(square, bad))

    def test_parse_names_the_failure_line_of_a_nonpositive_half_side(self):
        res = cover([(50, 50), (70, 50), (70, 70), (50, 70)], [ORTHIC],
                    max_depth=0)
        text = res.to_text()
        assert "failure 60 60 10\n" in text
        with pytest.raises(ValueError,
                           match="nonpositive half side in cover line "
                                 "'failure 60 60 -2'"):
            CoverResult.parse(text.replace("failure 60 60 10",
                                           "failure 60 60 -2"))


def root_square(target):
    """``cover``'s root: the bounding square of the target's box."""
    x0, y0, x1, y1 = polygon_bbox(target)
    return Square((x0 + x1) / 2, (y0 + y1) / 2, max(x1 - x0, y1 - y0) / 2)


def node_plans(codes):
    """Every nonempty plan of ``codes`` as ``cover`` compiles it (key,
    polygon, box), and the plan key's region system."""
    plans = [((i, j), poly, _box(poly.bbox()))
             for i, code in enumerate(codes)
             for j, asg in enumerate(all_assignments(code))
             for poly in [angle_bounding_polygon(code, asg)]
             if not poly.is_empty]

    def system(key):
        code = codes[key[0]]
        return region_system(code, all_assignments(code)[key[1]])

    return plans, system


class TestCoverNode:
    def test_retry_gives_the_record_at_double_precision(self):
        # the square of test_retry_at_double_precision_certifies, as a node
        sq = Square(F(48595, 4096), F(264375, 4096), F(65, 4096))
        plans, system = node_plans([load_default_corpus()[91].code])
        got = _cover_node(sq, 0, plans, None, _walls(sq.corners()), system,
                          7, 20, {})
        assert got == CoverRecord(sq, 0, F(47382509, 50000000000000), 14)

    @pytest.mark.parametrize("square", [
        Square(100, 100, 1),
        # shares only an edge with the target: no positive area
        Square(72, 60, 2),
    ])
    def test_square_outside_the_walls_is_dropped(self, square):
        plans, system = node_plans([ORTHIC])
        walls = _walls([(50, 50), (70, 50), (70, 70), (50, 70)])
        assert _cover_node(square, 0, plans, None, walls, system, 7, 20,
                           {}) is None

    def test_uncertified_square_at_max_depth_is_a_failure(self):
        sq = Square(60, 60, 10)
        plans, system = node_plans([ORTHIC])
        got = _cover_node(sq, 2, plans, None, _walls(sq.corners()), system,
                          7, 2, {})
        assert got is sq

    def test_split_hands_children_the_first_indeterminate_plan(self):
        # a depth-3 square of the deep box whose first candidate fails
        sq = Square(F(383, 32), F(2057, 32), F(1, 32))
        plans, system = node_plans(
            [load_default_corpus()[i].code for i in DEEP_CODES])
        cands, hint = _cover_node(sq, 3, plans, None, _walls(DEEP_BOX),
                                  system, 7, 20, {})
        held = [plan for plan in cands if _inside(sq, plan[1].faces)]
        statuses = [certify_square(system(plan[0]), sq).status
                    for plan in held]
        assert statuses[0] != "indeterminate"
        assert hint is held[statuses.index("indeterminate")]


class TestFilters:
    """The float screen and the float retry gate of ``certify_square``
    against the exact reference and its integer retry gate."""

    @pytest.mark.parametrize("run", ["deep_run", "thin_run"])
    def test_verdicts_match_the_exact_reference(self, run, request):
        _, calls, _ = request.getfixturevalue(run)
        assert calls
        for system, square, precision, cert in calls:
            want = reference_certify(system, square, precision)
            assert (cert.status, cert.margin) == (want.status, want.margin), \
                (system, square, precision)
            if want.status == "fail":
                assert cert.note == want.note

    @pytest.mark.parametrize("run", ["deep_run", "thin_run"])
    def test_gated_candidates_pass_at_no_precision(self, run, request):
        _, calls, _ = request.getfixturevalue(run)
        gated = [(system, square) for system, square, _, cert in calls
                 if cert.note == NO_PRECISION_PASSES]
        assert gated
        for system, square in gated:
            for precision in (14, 30):
                assert not reference_certify(system, square, precision).passed

    @pytest.mark.parametrize("run, gated", [("deep_run", 139),
                                            ("thin_run", 516)])
    def test_float_gate_marks_only_what_the_integer_gate_marks(
            self, run, gated, request):
        # every indeterminate certify call of the run (the float gate
        # gives no other status) against the integer gate: the float gate
        # decided exactly the calls the integer gate marks
        _, calls, screened = request.getfixturevalue(run)
        marked = 0
        for system, square, precision, cert in calls:
            if cert.status != "indeterminate":
                continue
            want = reference_gate(system, square, precision)
            assert (cert.note == NO_PRECISION_PASSES) == want, \
                (system, square, precision)
            marked += want
        assert marked == screened["_hopeless", True] == gated

    def test_compiled_rows_match_the_reference_terms(self, repeat_zx):
        # at seeded centers, each compiled row and both of its derivative
        # parts, summed on the atoms' and the partners' kernel bounds, give
        # the integers of the reference term rows; the doubles, weights
        # and gradient sums are the reference's too
        corpus = load_default_corpus()
        systems = [region_system(corpus[i].code) for i in DEEP_CODES]
        systems += [region_system(ORTHIC), repeat_zx]
        rng = random.Random(21)
        centers = []
        for _ in range(8):
            den = rng.choice((1, 8, 2 ** 20, 99991))
            centers.append((F(rng.randrange(1, 90 * den), den),
                            F(rng.randrange(1, 90 * den), den)))
        for system in systems:
            rows = reference_rows(system)
            assert len(system.rows) == len(rows)
            for row, (is_black, terms, g, parts) in zip(system.rows, rows):
                assert row.is_black == is_black
                assert [system.atoms[i] for i, _ in row.terms] == \
                    [key for key, _ in terms]
                assert [c for _, c in row.floats] == \
                    [c / system.den for _, c in terms]
                assert row.weight == \
                    sum(abs(c) for _, c in terms) / system.den
                assert row.g == g
                for part, (dterms, g2) in zip(row.parts, parts):
                    assert part.g2 == g2
                    assert part.weight == \
                        sum(abs(c) for _, c in dterms) / system.den
            for x, y in centers:
                X, Y, W = to_homogeneous((x, y))
                for precision in (7, 14):
                    cache = {}
                    values = atom_bounds(system.atoms, X, Y, W, precision,
                                         cache)
                    partners = atom_bounds(system.partners, X, Y, W,
                                           precision, cache)
                    for row, (_, terms, _, parts) in zip(system.rows, rows):
                        assert dot_bounds(row.terms, values) == term_bounds(
                            terms, X, Y, W, precision, {}), (system, x, y)
                        for part, (dterms, _) in zip(row.parts, parts):
                            assert dot_bounds(part.terms, partners) == \
                                term_bounds(dterms, X, Y, W, precision, {})

    def test_float_gate_never_marks_what_passes_or_fails(self, monkeypatch):
        # seeded squares in corpus systems' polygons, half sides from
        # 2^-20 to the strip-75-80 root's, at 7 and 14 digits: wherever
        # the float gate fires, the integer gate marks the square too,
        # and wherever the integer gate marks one, the float gate fires
        corpus = load_default_corpus()
        systems = [region_system(corpus[i].code) for i in DEEP_CODES]
        systems.append(region_system(ORTHIC))
        x0, y0, x1, y1 = polygon_bbox(PRESETS["strip-75-80"])
        top = max(x1 - x0, y1 - y0) / 2
        rng = random.Random(15)
        cases = []
        for _ in range(1200):
            system = rng.choice(systems)
            vertices = system.polygon.vertices
            weights = [rng.randrange(1, 64) for _ in vertices]
            r = top / 2 ** rng.randrange(25)
            # the weighted vertex average, on the grid of r/8
            x, y = (round(sum(w * v[k] for w, v in zip(weights, vertices))
                          / sum(weights) * 8 / r) * r / 8 for k in (0, 1))
            cases.append((system, Square(x, y, r), rng.choice((7, 14))))
        real, fired = prover._hopeless, collections.Counter()

        def gate(*args):
            got = real(*args)
            fired[got] += 1
            return got

        monkeypatch.setattr(prover, "_hopeless", gate)
        got = [certify_square(*case) for case in cases]
        monkeypatch.setattr(prover, "_hopeless", lambda *args: False)
        seen = collections.Counter()
        for case, cert in zip(cases, got):
            want = certify_square(*case)
            if want.status == "indeterminate" and reference_gate(*case):
                want.note = NO_PRECISION_PASSES
            assert (cert.status, cert.note, cert.margin) == \
                (want.status, want.note, want.margin), case
            seen[want.status, want.note] += 1
        # the gate weighed every square that passes, and marked some
        assert fired[False] >= seen["pass", ""] > 300
        assert fired[True] > 20

    def test_float_gate_slack_covers_the_kernel_width(self):
        # a black row one unit above a blue one, so that the integer gate
        # turns on at one half side, found by bisection: across half sides
        # moving each bump from 25 grid units below that to 75 above, the
        # float gate marks only squares the integer gate marks, and it
        # marks those from about 8 units above on
        black = ((("sin", 1, 0), 1), (("cos", 1, 1), -1))

        def gate(gap, x, y, r):
            blue = black + ((("cos", 0, 0), -gap),)
            system = band_system(((True, black), (False, blue)), 1)
            angles, values = prover._center_floats(
                system, *to_homogeneous((F(x), F(y))))
            square = Square(x, y, r)
            return (reference_certify(system, square, 7, gate=True),
                    prover._hopeless(system, angles, values, 7,
                                     prover._radians(square, 7)[0]))

        lo, hi = F(0), F(60)
        while hi - lo > hi / 10 ** 10:
            mid = (lo + hi) / 2
            marked = gate(1, 20, 30, mid)[0].note == NO_PRECISION_PASSES
            lo, hi = (lo, mid) if marked else (mid, hi)
        seen = collections.Counter()
        for j in range(-100, 300):
            cert, fires = gate(1, 20, 30, hi + j * hi / (4 * 10 ** 7))
            seen[fires, cert.note == NO_PRECISION_PASSES] += 1
        assert not seen[True, False]
        assert seen[False, False] == 100 and seen[True, True] > 200, seen
        # equal rows with exact sines: the exact center test fails them,
        # and the float gate leaves them to it
        for r in (1, 10, 40):
            cert, fires = gate(0, 30, 60, r)
            assert cert.note == CENTER_FAILS and not fires

    def test_float_gate_covers_the_derivative_slack(self, monkeypatch):
        # a black row 1000*sin(8x) near 8x = 90, whose x derivative nearly
        # cancels while its weight is large, against a constant blue row K,
        # at a half side where the derivative bump binds (r * pi/180 * 8 is
        # about 0.95).  Every enclosure is widened to the 2 grid units the
        # slacks allow, toward 0 below 45 degrees and away from it above,
        # so the exact derivative bounds lie as near 0, and the black row's
        # upper bound as high, as any kernel could put them.  Just below
        # the K at which the integer gate turns on, the float gate must
        # stay off; without the derivative slack it fires there.
        kernel = numeric._sin_folded

        def widest(num, den, precision):
            lo, hi = kernel(num, den, precision)
            if 2 * num > 90 * den:
                return lo, min(lo + 2, 10 ** precision)
            return max(hi - 2, 0), hi

        monkeypatch.setattr(numeric, "_sin_folded", widest)
        den, r = 10 ** 12, F(68, 10)
        black = ((("sin", 8, 0), 1000 * den),)

        def gate(x, k):
            blue = ((("cos", 0, 0), k),)
            system = band_system(((True, black), (False, blue)), den)
            angles, values = prover._center_floats(
                system, *to_homogeneous((x, F(30))))
            square = Square(x, 30, r)
            return (reference_gate(system, square, 7),
                    prover._hopeless(system, angles, values, 7,
                                     prover._radians(square, 7)[0]))

        rng = random.Random(16)
        seen = collections.Counter()
        for _ in range(6):
            x = (90 + F(rng.randrange(-3 * 10 ** 6, 3 * 10 ** 6), 10 ** 6)) / 8
            lo, hi = 0, 998 * den  # unmarked, marked
            assert not gate(x, lo)[0] and gate(x, hi)[0]
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if gate(x, mid)[0] else (mid, hi)
            for j in range(-100, 30):
                marked, fires = gate(x, lo - j * den // 10 ** 5)
                seen[fires, marked] += 1
        assert not seen[True, False]
        assert seen[False, False] == 6 * 30 and seen[True, True] > 100, seen

    @pytest.mark.parametrize("x, y, r, index, margin", [
        (F(48595, 4096), F(264375, 4096), F(65, 4096), 91,
         F(47382509, 50000000000000)),
        (F(2947925, 131072), F(7240925, 131072), F(65, 131072), 28,
         F(1861951, 6250000000000)),
    ])
    def test_gate_leaves_squares_that_pass_at_14_digits(self, x, y, r, index,
                                                        margin):
        # two of the three squares of the full strip-75-80 cover that
        # pass only on retry, each against its code under assignment ZY:
        # neither the float nor the integer retry gate marks them
        system = zy_system(index)
        sq = Square(x, y, r)
        first = certify_square(system, sq, 7)
        assert (first.status, first.note) == ("indeterminate", "")
        assert not reference_gate(system, sq, 7)
        retry = certify_square(system, sq, 14)
        assert (retry.status, retry.margin) == ("pass", margin)
        assert reference_certify(system, sq, 14).margin == margin

    @pytest.mark.parametrize("x, y, r, index", [
        (F(736315, 32768), F(1810215, 32768), F(65, 32768), 37),
        (F(10435475, 524288), F(30832125, 524288), F(65, 524288), 53),
    ])
    def test_squares_only_the_integer_gate_marks_are_retried(self, x, y, r,
                                                             index):
        # two of the seven squares of the full strip-75-80 cover that the
        # integer retry gate marks and the float gate does not, each
        # against its code under assignment ZY: plain indeterminate, so
        # retried, and passed at no precision
        system = zy_system(index)
        sq = Square(x, y, r)
        first = certify_square(system, sq, 7)
        assert (first.status, first.note) == ("indeterminate", "")
        assert reference_gate(system, sq, 7)
        for precision in (14, 30):
            assert not reference_certify(system, sq, precision).passed

    def test_screen_fails_only_where_the_exact_center_test_fails(self):
        # seeded points across the angle plane, anywhere relative to the
        # systems' polygons, and in the box where they nearly pass: a
        # screened "fail" must be an exact one
        corpus = load_default_corpus()
        systems = [region_system(corpus[i].code) for i in DEEP_CODES]
        systems.append(region_system(ORTHIC))
        rng = random.Random(7)
        seen = collections.Counter()
        for _ in range(60):
            den = rng.choice((1, 8, 2 ** 20, 99991))
            if rng.random() < 0.5:
                x = F(rng.randrange(1, 90 * den), den)
                y = F(rng.randrange(1, 90 * den), den)
            else:
                x = F(23, 2) + F(rng.randrange(den), 2 * den)
                y = F(257, 4) + F(rng.randrange(den), 4 * den)
            X, Y, W = to_homogeneous((x, y))
            for system in systems:
                for precision in (7, 14):
                    _, values = prover._center_floats(system, X, Y, W)
                    screened = prover._center_fails(system, values,
                                                    precision)
                    seen[screened] += 1
                    if screened:
                        rows = reference_rows(system)
                        black = [term_bounds(terms, X, Y, W, precision, {})
                                 for is_black, terms, _, _ in rows
                                 if is_black]
                        blue = [term_bounds(terms, X, Y, W, precision, {})
                                for is_black, terms, _, _ in rows
                                if not is_black]
                        assert min(hi for _, hi in black) <= \
                            max(lo for lo, _ in blue), (system, x, y)
        assert seen[True] > 100 and seen[False] > 20, seen

    @pytest.mark.parametrize("precision", [7, 14])
    def test_screen_slack_covers_the_kernel_width(self, precision):
        # a black and a blue row equal up to a constant gap: the screen
        # may fail the center only where the exact bounds, up to 2 grid
        # units per atom wide, fail it too
        den = 2 ** 40
        X, Y, W = to_homogeneous((F(20), F(30)))
        screened = {}
        for shift in (10, 20, 30, 40):
            gap = 2 ** (40 - shift)  # 2^-shift of a unit
            black = ((("sin", 1, 0), den), (("cos", 1, 1), -den))
            blue = black + ((("cos", 0, 0), gap),)
            rows = ((True, black), (False, blue))
            system = RegionSystem(None, None, "band", None, None, rows, den)
            lo_hi = [term_bounds(terms, X, Y, W, precision, {})
                     for _, terms in rows]
            exact = lo_hi[0][1] <= lo_hi[1][0]
            _, values = prover._center_floats(system, X, Y, W)
            screened[shift] = prover._center_fails(system, values,
                                                   precision)
            assert exact or not screened[shift], shift
        # a gap of 2^-20 is past the slack at both precisions, 2^-40
        # within it; 2^-30 lies between the kernel width at 7 digits and
        # the float error at 14
        assert screened == {10: True, 20: True, 30: precision == 14,
                            40: False}

    def test_kernel_width_is_at_most_two_grid_units(self):
        # the screen's slack counts 2 grid units per atom
        rng = random.Random(11)
        angles = [(num, 1) for num in range(-720, 721, 15)]
        angles += [(rng.randrange(-2 ** 40, 2 ** 40),
                    rng.randrange(1, 2 ** 26)) for _ in range(300)]
        for num, den in angles:
            for precision in (7, 14, 30):
                lo, hi = sin_scaled(num, den, precision)
                assert 0 <= hi - lo <= 2, (num, den, precision)

    @pytest.mark.parametrize("run", ["deep_run", "thin_run"])
    def test_witness_fails_only_where_the_full_screen_fails(self, run,
                                                            request):
        _, _, screened = request.getfixturevalue(run)
        decided = screened["_witness_fails", True]
        assert decided > 0
        assert screened["full screen on a witness fail", True] == decided
        assert not screened["full screen on a witness fail", False]

    def test_witness_decides_most_center_fails(self, thin_run):
        # of the thin cover's 1670 center fails, the remembered pair of
        # rows decides all but a few; the full screen decides the rest
        _, _, screened = thin_run
        assert screened["_witness_fails", True] >= 1600

    def test_rebuilt_system_starts_without_witness(self, deep_run):
        # the witness lives on the system, not in a table keyed by id(),
        # so a system built again after the first was collected (and may
        # reuse its address) starts with none
        _, calls, _ = deep_run
        code, asg, square = next((system.code, system.asg, square)
                                 for system, square, _, cert in calls
                                 if cert.note == CENTER_FAILS)
        system = region_system(code, asg)
        assert system.witness is None
        assert certify_square(system, square).note == CENTER_FAILS
        assert system.witness is not None
        del system
        gc.collect()
        rebuilt = region_system(code, asg)
        assert rebuilt.witness is None
        assert certify_square(rebuilt, square).note == CENTER_FAILS
        assert rebuilt.witness is not None

    def test_line_system_takes_no_shared_memo(self, repeat_zx):
        with pytest.raises(ValueError, match="memo"):
            certify_square(repeat_zx, Square(30, 60, F(1, 2)), 7, {})


class TestSeparationBoundaries:
    """Each black-over-blue decision of ``certify_square`` and of its float
    retry gate at its boundary, on chosen integers: a black value equal to
    the blue one never passes, and it fails, gates or stays
    indeterminate."""

    BLACK = ((("sin", 1, 0), 1),)
    BLUE = ((("sin", 2, 0), 1),)

    @pytest.mark.parametrize("black, blue, want", [
        # the coefficient sweep: lo - 10 against hi + 10; at a tie the
        # derivative sweep passes instead, 117 against 103
        ((121, 130), (90, 100), ("pass", F(1, 10 ** 7), "")),
        ((120, 130), (90, 100), ("pass", F(14, 10 ** 7), "")),
        # the center test: hi against lo
        ((80, 100), (100, 120), ("fail", None, CENTER_FAILS)),
        ((80, 101), (100, 120), ("indeterminate", None, "")),
        # the derivative sweep: lo - 3 against hi + 3
        ((107, 130), (90, 100), ("pass", F(1, 10 ** 7), "")),
        ((106, 130), (90, 100), ("indeterminate", None, "")),
        # no retry gate after the exact sums: whether hi - 3 is at most
        # lo + 3 (a proof that no precision passes) or above it, the
        # square is left indeterminate, to be retried
        ((80, 100), (94, 96), ("indeterminate", None, "")),
        ((80, 101), (94, 96), ("indeterminate", None, "")),
    ])
    def test_certify_square(self, monkeypatch, black, blue, want):
        # a black and a blue row whose sums are ``black`` and ``blue``, in
        # grid units, with g = 10 and r * pi/180 taken as 10^-7 from both
        # sides: each coefficient bump is 10, and each derivative part sums
        # to 3 * 10^7 with its own bump, so each derivative bump is 3.
        # The kernel bounds are chosen to give those sums: d/dx of
        # c*sin(m*x) is c*m times its partner cos(m*x), with gradient sum
        # c*m*m, and d/dy is empty
        scale = 10 ** 7
        kernel = {("sin", 1, 0): black, ("sin", 2, 0): blue,
                  ("cos", 1, 0): (3 * scale - 1,) * 2,
                  ("cos", 2, 0): ((3 * scale - 4) // 2,) * 2}

        def stub(atoms, *args):
            return [kernel[key] for key in atoms]

        monkeypatch.setattr(prover, "_hopeless", lambda *args: False)
        monkeypatch.setattr(prover, "_center_fails", lambda *args: False)
        monkeypatch.setattr(prover, "atom_bounds", stub)
        monkeypatch.setattr(prover, "_radians",
                            lambda square, p: ((1, 10 ** p),) * 2)
        polygon = types.SimpleNamespace(faces=(), is_empty=False)
        rows = ((True, self.BLACK), (False, self.BLUE))
        system = RegionSystem(None, None, "band", polygon, None, rows, 1)
        system.rows = tuple(row._replace(g=10) for row in system.rows)
        cert = certify_square(system, Square(30, 30, 1), 7)
        assert (cert.status, cert.margin, cert.note) == want

    @staticmethod
    def hopeless(black, blue, g, d):
        """``_hopeless`` on a black and a blue row without terms, of float
        values ``black`` and ``blue`` and no slack, with r * pi_lo/180
        taken as 10^-7, so their ends are 10^7 times the values, their
        coefficient bumps are g and their derivative bumps d."""
        parts = (prover.Part([], 0.0, 0.0, d * 10 ** 7),
                 prover.Part([], 0.0, 0.0, 0))
        rows = tuple(prover.Row(is_black, [], [], 0.0, 0.0, g, parts)
                     for is_black in (True, False))
        system = types.SimpleNamespace(atoms=(), rows=rows, den=1)
        return prover._hopeless(system, [], [black, blue], 7, (1, 10 ** 7))

    def test_float_gate_needs_the_center_test_to_pass(self):
        # (b): at equal values the exact center test may fail, so the
        # gate stays off though the reaches would fire it; 2^-20 above,
        # black reaches 10^7 + 4 and blue 10^7 + 5
        assert not self.hopeless(1.0, 1.0, 5, 5)
        assert self.hopeless(1.0 + 2 ** -20, 1.0, 5, 5)

    @pytest.mark.parametrize("g, d, want", [
        # the reaches with the coefficient bumps tie: the gate goes on
        # to the derivative bumps, and there they tie again
        (5 * 10 ** 6, 5 * 10 ** 6, True),
        (5 * 10 ** 6 - 1, 5 * 10 ** 6, False),
        # the derivative bumps alone decide
        (6 * 10 ** 6, 5 * 10 ** 6, True),
        (6 * 10 ** 6, 5 * 10 ** 6 - 1, False),
    ])
    def test_float_gate_reaches(self, g, d, want):
        assert self.hopeless(2.0, 1.0, g, d) is want


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
