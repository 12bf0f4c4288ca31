import hashlib
import math
import random
import types
from fractions import Fraction

import pytest

from billiardpath.classify import (_normalize_line, angle_bounding_polygon,
                                   classify_code)
from billiardpath.corpus import load_default_corpus
from billiardpath.numeric import Interval, TrigPoly, simplify
from billiardpath.sequences import (CodeSequence, all_assignments,
                                    assign_angles, form_degrees,
                                    third_symbol)
from billiardpath import tower as tower_module
from billiardpath.tower import (BLACK, BLUE, FanAngleError, PrecisionError,
                                ShapeError, SymbolicTower, _judge,
                                _line_through, _vanishes_on,
                                convex_hull_separation, key_points,
                                pruned_key_points, separation,
                                symbolic_tower, unfold)
from billiardpath.tower import test_I as band_test
from billiardpath.tower import test_II as pruned_band_test
from billiardpath.tower import test_III as shape_test

from _reference import AffineForm, symbol_degrees, symbol_value, widest_fans
from _worked_example import (C_ON_AXIS, C_REFERENCE, CHAIN_STEPS, D_ON_AXIS,
                             D_REFERENCE, G_C_REFERENCE, G_D_REFERENCE,
                             WORKED_CODES, WORKED_FIRST, WORKED_LETTERS,
                             WORKED_SECOND, substitute_line)


def poly_of(terms):
    p = TrigPoly()
    for coeff, kind, m, n in terms:
        p = p + TrigPoly.atom(kind, m, n, 0, coeff)
    return p


def build_tower(codes, first, second, x, y, precision=7):
    code = CodeSequence(codes)
    return unfold(code, assign_angles(code, first, second), x, y, precision)


def midpoint(iv):
    return float(iv.lo + iv.hi) / 2


class TestWorkedExample:
    """The 1 1 2 3 3 2 chain along y = x, checked against its published
    closed forms."""

    def setup_method(self):
        code = CodeSequence(WORKED_CODES)
        self.asg = assign_angles(code, WORKED_FIRST, WORKED_SECOND)
        self.sym = symbolic_tower(code, self.asg)

    def test_letters_and_class(self):
        assert [self.asg.symbol(i) for i in range(1, 7)] == WORKED_LETTERS
        assert classify_code(CodeSequence(WORKED_CODES)) == "ONS"

    def test_seed_centers(self):
        first, second = self.sym.centers[0], self.sym.centers[1]
        assert first.px.terms == {("sin", 0, 1): Fraction(2)}
        assert first.py.is_zero()
        assert second.px.is_zero() and second.py.is_zero()

    def test_chain_follows_turning_angles(self):
        x, y = 41, 67
        xr, yr = math.radians(x), math.radians(y)
        vals = {"x": xr, "y": yr, "z": math.pi - xr - yr}
        px, py = 0.0, 0.0
        chain = [(2 * math.sin(yr), 0.0), (px, py)]
        for s, (letter, m, n, q) in enumerate(CHAIN_STEPS, start=2):
            t = math.radians(m * x + n * y + q * 90)
            u = 2 * math.sin(vals[letter])
            px += u * (-1) ** s * math.cos(t)
            py += u * math.sin(t)
            chain.append((px, py))
        tower = self.sym.at(x, y, 9)
        for center, (ex, ey) in zip(self.sym.centers, chain):
            gx, gy = tower.locate(center)
            assert abs(midpoint(gx) - ex) < 1e-6
            assert abs(midpoint(gy) - ey) < 1e-6

    def test_shooting_vector_term_count(self):
        c, d = self.sym.shooting
        assert len(c.terms) == 10
        assert len(d.terms) == 10

    def test_reference_sums_agree_on_axis(self):
        c, d = self.sym.shooting
        cr, dr = poly_of(C_REFERENCE), poly_of(D_REFERENCE)
        on_axis = [substitute_line(p, 1, 0).terms for p in (c, d, cr, dr)]
        assert on_axis[0] == on_axis[2] == poly_of(C_ON_AXIS).terms
        assert on_axis[1] == on_axis[3] == poly_of(D_ON_AXIS).terms

    def test_reference_sums_differ_off_axis(self):
        # the published horizontal sum folded one step through y = x, so
        # away from that axis it is not the symbolic column
        c, _ = self.sym.shooting
        diff = c + poly_of(C_REFERENCE) * Fraction(-1)
        assert not diff.is_zero()
        iv = diff.eval(41, 67, 9)
        assert iv.lo > Fraction(1, 100)

    def test_gradient_bounds(self):
        assert poly_of(C_REFERENCE).gradient_bound() == G_C_REFERENCE
        assert poly_of(D_REFERENCE).gradient_bound() == G_D_REFERENCE


class TestChainGeometry:
    def reflect(self, p, a, b):
        ax, ay = a
        dx, dy = b[0] - a[0], b[1] - a[1]
        t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / (dx * dx + dy * dy)
        fx, fy = ax + t * dx, ay + t * dy
        return (2 * fx - p[0], 2 * fy - p[1])

    def float_triangles(self, tower):
        for tri in tower.sym.triangles():
            yield [tuple(midpoint(v) for v in tower.locate(p)) for p in tri]

    @pytest.mark.parametrize("codes,first,second,x,y", [
        ([1, 2, 1, 2], "Z", "X", 30, 60),
        ([1, 1, 1], "X", "Y", 60, 60),
        ([2, 2], "X", "Y", 50, 50),
        ([3, 1, 2, 1, 1, 2], "X", "Y", Fraction(25), Fraction(55)),
    ])
    def test_consecutive_triangles_mirror(self, codes, first, second, x, y):
        tower = build_tower(codes, first, second, x, y)
        tris = list(self.float_triangles(tower))
        for prev, cur in zip(tris, tris[1:]):
            shared = [v for v in cur if any(math.dist(v, w) < 1e-6
                                           for w in prev)]
            assert len(shared) == 2
            new = next(v for v in cur if all(math.dist(v, w) >= 1e-6
                                             for w in shared))
            old = next(v for v in prev if all(math.dist(v, w) >= 1e-6
                                              for w in shared))
            image = self.reflect(old, shared[0], shared[1])
            assert math.dist(new, image) < 1e-6

    def test_all_triangles_congruent(self):
        x, y = 30, 60
        tower = build_tower([1, 2, 1, 2], "Z", "X", x, y)
        want = sorted([2 * math.sin(math.radians(x)),
                       2 * math.sin(math.radians(y)),
                       2 * math.sin(math.radians(x + y))])
        for tri in self.float_triangles(tower):
            got = sorted([math.dist(tri[0], tri[1]),
                          math.dist(tri[1], tri[2]),
                          math.dist(tri[2], tri[0])])
            assert max(abs(a - b) for a, b in zip(got, want)) < 1e-6

    def test_fan_count_and_colors(self):
        sym = symbolic_tower(CodeSequence([1, 2, 1, 2]),
                             assign_angles(CodeSequence([1, 2, 1, 2]), "Z", "X"))
        assert len(sym.fans) == 4
        for i, center in enumerate(sym.centers, start=1):
            assert center.color == ("blue" if i % 2 == 0 else "black")
        for fan in sym.fans:
            for p in fan.arc[1:-1]:
                assert p.color != fan.center.color

    def test_arc_ends_are_neighbour_centers(self):
        sym = symbolic_tower(CodeSequence([2, 2]),
                             assign_angles(CodeSequence([2, 2]), "X", "Y"))
        for i, fan in enumerate(sym.fans, start=1):
            assert fan.arc[0] is sym.centers[i - 1]
            assert fan.arc[-1] is sym.centers[i + 1]

    def test_degenerate_triangle_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            build_tower([1, 1, 1], "X", "Y", 90, 90)


class TestVerdicts:
    def test_square_repeat_passes_on_its_line(self):
        tower = build_tower([2, 2], "X", "Y", 50, 50)
        assert band_test(tower).passed
        assert pruned_band_test(tower).passed
        assert not tower.band_refuted()

    def test_square_repeat_fails_off_its_line(self):
        tower = build_tower([2, 2], "X", "Y", 40, 50)
        assert tower.band_refuted()
        assert band_test(tower).status == "fail"
        assert pruned_band_test(tower).status == "fail"

    def test_square_repeat_wrong_assignment_fails(self):
        tower = build_tower([2, 2], "X", "Z", 50, 50)
        assert band_test(tower).status == "fail"

    def test_alternating_line_code(self):
        tower = build_tower([1, 2, 1, 2], "Z", "X", 30, 60)
        for check in (band_test, pruned_band_test, shape_test):
            v = check(tower)
            assert v.passed and v.margin > 0

    def test_right_angle_fan_rejected(self):
        tower = build_tower([1, 2, 1, 2], "X", "Y", 30, 60)
        assert not tower.fan_angles_below_180()
        with pytest.raises(FanAngleError):
            pruned_band_test(tower)
        with pytest.raises(FanAngleError):
            shape_test(tower)

    def test_odd_code_passes_at_equilateral(self):
        for asg in all_assignments(CodeSequence([1, 1, 1])):
            tower = unfold(CodeSequence([1, 1, 1]), asg, 60, 60)
            assert band_test(tower).passed
            assert pruned_band_test(tower).passed

    def test_odd_code_fails_far_away(self):
        tower = build_tower([1, 1, 1], "X", "Y", 20, 30)
        assert band_test(tower).status == "fail"

    def test_doubled_odd_code_has_no_shape(self):
        tower = build_tower([1, 1, 1], "X", "Y", 60, 60)
        with pytest.raises(ShapeError):
            shape_test(tower)

    def test_margins_and_counts(self):
        tower = build_tower([1, 2, 1, 2], "Z", "X", 30, 60)
        vI, vII = band_test(tower), pruned_band_test(tower)
        assert vII.margin == Fraction(1, 2)
        assert abs(vI.margin - Fraction(1, 2)) < Fraction(1, 10 ** 6)
        assert (vI.blue_count, vI.black_count) == (5, 3)
        assert (vII.blue_count, vII.black_count) == (3, 2)


class TestKeyPoints:
    def test_key_point_budget(self):
        sym = symbolic_tower(CodeSequence([1, 2, 1, 2]),
                             assign_angles(CodeSequence([1, 2, 1, 2]), "Z", "X"))
        kp = key_points(sym)
        assert len(kp) == 6
        assert len(kp) <= len(sym.points)
        assert sym.centers[0] in kp

    def test_top_labels_score_like_base(self):
        # a closed band returns over its own corners, so dropping the top
        # pair from the key set loses nothing; the residue is exactly the
        # closure defect, which vanishes identically for stable codes and
        # on the balance line otherwise
        for codes, first, second in [([1, 1, 1], "X", "Y"),
                                     ([1, 2, 1, 2], "Z", "X")]:
            code = CodeSequence(codes)
            sym = symbolic_tower(code, assign_angles(code, first, second))
            for top, base, closure in zip(sym.top, sym.base, sym.closure):
                diff = (sym.score_poly(top)
                        + sym.score_poly(base) * Fraction(-1))
                assert (diff + closure * Fraction(-1)).is_zero()

    def test_band_test_equivalence_on_corpus(self):
        rng = random.Random(11)
        entries = rng.sample(load_default_corpus(), 6)
        for entry in entries:
            for asg in all_assignments(entry.code):
                poly = angle_bounding_polygon(entry.code, asg)
                if len(poly.vertices) < 3:
                    continue
                cx = sum(Fraction(v[0]) for v in poly.vertices) / len(poly.vertices)
                cy = sum(Fraction(v[1]) for v in poly.vertices) / len(poly.vertices)
                tower = unfold(entry.code, asg, cx, cy)
                if not tower.fan_angles_below_180():
                    continue
                vI, vII = band_test(tower), pruned_band_test(tower)
                if "indeterminate" in (vI.status, vII.status):
                    continue
                assert vI.status == vII.status
                break


class TestClosure:
    def test_stable_codes_close_symbolically(self):
        rng = random.Random(5)
        entries = [e for e in load_default_corpus()
                   if classify_code(e.code) in ("CS", "OSO", "OSNO")]
        for entry in rng.sample(entries, 8):
            asg = all_assignments(entry.code)[0]
            sym = symbolic_tower(entry.code, asg)
            assert sym.closure[0].is_zero()
            assert sym.closure[1].is_zero()

    def test_unstable_closures_are_nonzero(self):
        cases = [([2, 2], "X", "Y", 4, 0),
                 ([1, 2, 1, 2], "Z", "X", 4, 0),
                 ([1, 1, 2, 1, 3, 2], "X", "Y", 0, 10)]
        for codes, first, second, na, nb in cases:
            code = CodeSequence(codes)
            sym = symbolic_tower(code, assign_angles(code, first, second))
            ca, cb = sym.closure
            assert (len(ca.terms), len(cb.terms)) == (na, nb)

    def test_theta_and_chain_direction_agree(self):
        sym = symbolic_tower(CodeSequence([1, 1, 1]),
                             assign_angles(CodeSequence([1, 1, 1]), "X", "Y"))
        c, d = sym.shooting
        a0, top = sym.base[0], sym.top[0]
        dx, dy = top.px + a0.px * Fraction(-1), top.py + a0.py * Fraction(-1)
        cross = dx * d + dy * c * Fraction(-1)
        assert cross.is_zero()
        dot = dx * c + dy * d
        assert dot.eval(60, 60, 7).lo > 0


class TestShapeRails:
    def find_shape_case(self):
        for entry in load_default_corpus():
            if entry.kind != "CS":
                continue
            for asg in all_assignments(entry.code):
                sym = symbolic_tower(entry.code, asg)
                if not sym.pivots:
                    continue
                poly = angle_bounding_polygon(entry.code, asg)
                if len(poly.vertices) < 3:
                    continue
                cx = sum(Fraction(v[0]) for v in poly.vertices) / len(poly.vertices)
                cy = sum(Fraction(v[1]) for v in poly.vertices) / len(poly.vertices)
                tower = unfold(entry.code, asg, cx, cy)
                if tower.fan_angles_below_180():
                    return sym, tower
        raise AssertionError("no usable shape case in the corpus")

    def test_pivot_side_crosses_at_right_angle(self):
        sym, tower = self.find_shape_case()
        c, d = tower.shooting_vector()
        for center, arcmid in sym.special_perpendiculars():
            av, bv = tower.locate(center), tower.locate(arcmid)
            along_a = c * av[0] + d * av[1]
            along_b = c * bv[0] + d * bv[1]
            gap = along_a - along_b
            assert gap.lo <= 0 <= gap.hi

    def test_shape_verdict_matches_band_verdict(self):
        sym, tower = self.find_shape_case()
        vI, vIII = band_test(tower), shape_test(tower)
        if "indeterminate" not in (vI.status, vIII.status):
            assert vI.status == vIII.status


class TestHullSeparation:
    def test_hulls_disjoint_when_band_passes(self):
        tower = build_tower([1, 1, 1], "X", "Y", 60, 60)
        assert convex_hull_separation(tower).passed

    def test_hulls_overlap_when_band_fails(self):
        tower = build_tower([1, 1, 1], "X", "Y", 20, 30)
        assert convex_hull_separation(tower).status == "fail"


# --- linear-time build ------------------------------------------------

def reference_turns(sym):
    """T_0 .. T_{n+1}, the alternating partial sums of the fan openings, as
    ``AffineForm``s, the way the builder carried them before integer
    triples."""
    codes = sym.code.codes
    n = len(codes)
    t_forms = [AffineForm()]
    for m in range(1, n + 2):
        t_forms.append(symbol_value(sym._letter(m)) * codes[(m - 1) % n]
                       - t_forms[m - 1])
    return t_forms


def form_atom(kind, form):
    return (kind, int(form.ax), int(form.ay), int(form.c))


def reference_centers(sym):
    """(px, py) of every chain center from the cumulative-product builder
    the linear one replaced: center m re-expands all m chain products."""
    n = len(sym.code.codes)
    letter = sym._letter
    t_forms = reference_turns(sym)
    px_products = [(1, [form_atom("sin", symbol_value(
        third_symbol(letter(0), letter(1))))])]
    py_products = []
    out = [(simplify(px_products), simplify(py_products))]
    for m in range(1, n + 2):
        u_atom = form_atom("sin", symbol_value(third_symbol(letter(m - 1),
                                                            letter(m))))
        sign = 1 if m % 2 == 0 else -1
        px_products = px_products + \
            [(sign, [u_atom, form_atom("cos", t_forms[m - 1])])]
        py_products = py_products + \
            [(1, [u_atom, form_atom("sin", t_forms[m - 1])])]
        out.append((simplify(px_products), simplify(py_products)))
    return out


def reference_arc_points(sym, centers=None):
    """(px, py) of every arc interior point, fan by fan: its center plus
    one simplified product, with the arc angle an ``AffineForm``; the
    centers' coordinates are ``centers``' or else the tower's own."""
    if centers is None:
        centers = [(p.px, p.py) for p in sym.centers]
    codes = sym.code.codes
    letter = sym._letter
    t_forms = reference_turns(sym)
    out = []
    for i in range(1, len(codes) + 1):
        m = i + 1
        v = symbol_value(letter(i))
        prev = letter(i - 1)
        radii = (form_atom("sin", symbol_value(third_symbol(letter(i), prev))),
                 form_atom("sin", symbol_value(prev)))
        if m % 2 == 0:
            delta, sigma = -t_forms[m - 2], 1
        else:
            delta, sigma = AffineForm.const(180) + t_forms[m - 2], -1
        cx, cy = centers[m - 1]
        for j in range(1, codes[i - 1]):
            ang = delta + v * (sigma * j)
            radius = radii[j % 2]
            out.append(
                (cx + simplify([(1, [radius, form_atom("cos", ang)])]),
                 cy + simplify([(1, [radius, form_atom("sin", ang)])])))
    return out


def digest_key(poly):
    return tuple(sorted((k, str(c)) for k, c in poly.terms.items()))


def tower_digest_lines(sym):
    for p in sym.centers:
        yield repr((p.label, p.color, digest_key(p.px), digest_key(p.py)))
    yield repr(("shooting", sym.shooting_kind,
                [digest_key(p) for p in sym.shooting]))
    yield repr(("closure", [digest_key(p) for p in sym.closure]))
    for p in pruned_key_points(sym):
        yield repr((p.label, p.color, digest_key(sym.score_poly(p))))


# sha256 of tower_digest_lines over the 402 plans (code and assignment) of
# the corpus entries with codes of length <= 24, as the cumulative-product
# builder with Fraction coefficients printed them
FROZEN_TOWER_DIGEST = \
    "25fa739fcb3ce09c0c7168ab2a1f53d9e10b7b549dca89f59741e0fb9cbb5f0f"


class TestLinearBuild:
    def test_frozen_tower_digest(self):
        h = hashlib.sha256()
        plans = 0
        for entry in load_default_corpus():
            if len(entry.code.codes) > 24:
                continue
            for asg in all_assignments(entry.code):
                for line in tower_digest_lines(SymbolicTower(entry.code, asg)):
                    h.update(line.encode() + b"\n")
                plans += 1
        assert plans == 402
        assert h.hexdigest() == FROZEN_TOWER_DIGEST

    def test_centers_match_cumulative_reference(self):
        corpus = load_default_corpus()
        longest = max(corpus, key=lambda e: len(e.code.codes))
        assert len(longest.code.codes) == 116
        cases = [(CodeSequence(codes), first, second)
                 for codes, first, second in [
                     ([1, 1, 1], "X", "Y"), ([1, 2, 1, 2], "Z", "X"),
                     (WORKED_CODES, WORKED_FIRST, WORKED_SECOND)]]
        syms = [SymbolicTower(code, assign_angles(code, first, second))
                for code, first, second in cases]
        syms.append(SymbolicTower(longest.code,
                                  all_assignments(longest.code)[0]))
        for sym in syms:
            ref = reference_centers(sym)
            assert len(ref) == len(sym.centers)
            for p, (px, py) in zip(sym.centers, ref):
                assert p.px.terms == px.terms and p.py.terms == py.terms
                assert p.px == px and p.py == py

    def test_arc_points_match_affine_reference(self):
        corpus = load_default_corpus()
        longest = max(corpus, key=lambda e: len(e.code.codes))
        worked = CodeSequence(WORKED_CODES)
        plans = [(worked, assign_angles(worked, WORKED_FIRST, WORKED_SECOND)),
                 (longest.code, all_assignments(longest.code)[0])]
        plans += [(corpus[56].code, asg)
                  for asg in all_assignments(corpus[56].code)]
        for code, asg in plans:
            sym = SymbolicTower(code, asg)
            arcs = [p for fan in sym.fans for p in fan.arc[1:-1]]
            ref = reference_arc_points(sym)
            assert len(arcs) == len(ref) > 0
            for p, (px, py) in zip(arcs, ref):
                assert p.px == px and p.py == py

    def test_coordinates_expand_on_demand_to_the_eager_sums(self):
        # building a tower, pruning its key points and expanding their
        # scores leave every coordinate but the first center's unexpanded;
        # read in a seeded order, each point's px and py are the eager
        # builder's: the cumulative centers, and each arc point its
        # center plus one simplified product
        rng = random.Random(9)
        corpus = load_default_corpus()
        longest = max(corpus, key=lambda e: len(e.code.codes))
        unstable = CodeSequence([1, 2, 1, 4])
        worked = CodeSequence(WORKED_CODES)
        plans = [(worked, assign_angles(worked, WORKED_FIRST, WORKED_SECOND)),
                 (unstable, assign_angles(unstable, "Y", "Z")),
                 (longest.code, all_assignments(longest.code)[0])]
        plans += [(corpus[56].code, asg)
                  for asg in all_assignments(corpus[56].code)]
        for code, asg in plans:
            sym = SymbolicTower(code, asg)
            for p in key_points(sym):
                sym.score_poly(p)
            pruned_key_points(sym)
            assert [p for p in sym.points if p._px is not None] == \
                [sym.centers[0]]
            centers = reference_centers(sym)
            arcs = [p for fan in sym.fans for p in fan.arc[1:-1]]
            want = dict(zip(map(id, sym.centers + arcs),
                            centers + reference_arc_points(sym, centers)))
            order = list(sym.points)
            rng.shuffle(order)
            for p in order:
                assert (p.px, p.py) == want[id(p)]

    def test_scores_match_direct_products(self):
        for codes, first, second in [([1, 1, 1], "X", "Y"),
                                     ([1, 2, 1, 2], "Z", "X"),
                                     (WORKED_CODES, WORKED_FIRST,
                                      WORKED_SECOND)]:
            code = CodeSequence(codes)
            sym = SymbolicTower(code, assign_angles(code, first, second))
            c, d = sym.shooting
            for p in reversed(sym.points):
                assert sym.score_poly(p) == d * p.px - c * p.py


def reference_closure(sym):
    """Both closure polynomials as full products: each expanded end
    displacement, A_last - A0 and B_last - B0, crossed with the shooting
    vector."""
    c, d = sym.shooting
    return tuple((top.px - base.px) * d - (top.py - base.py) * c
                 for top, base in zip(sym.top, sym.base))


def test_closure_matches_the_full_products():
    # every corpus plan, whose B displacement always equals its A one, and
    # seeded legal codes, about half of them with unequal displacements:
    # the tower shares one polynomial for both closures exactly when the
    # displacements agree, and expands the second product otherwise
    plans = [(e.code, asg) for e in load_default_corpus()
             for asg in all_assignments(e.code)]
    assert len(plans) == 804
    rng = random.Random(25)
    while len(plans) < 1804:
        code = CodeSequence([rng.randrange(1, 8)
                             for _ in range(rng.randrange(2, 12))])
        asgs = all_assignments(code)
        if asgs:
            plans.append((code, rng.choice(asgs)))
    shared = []
    for code, asg in plans:
        sym = SymbolicTower(code, asg)
        assert sym.closure == reference_closure(sym), (code, asg)
        (a_last, b_last), (a0, b0) = sym.top, sym.base
        same = (b_last.px - b0.px, b_last.py - b0.py) == \
            (a_last.px - a0.px, a_last.py - a0.py)
        assert (sym.closure[1] is sym.closure[0]) is same
        shared.append(same)
    assert all(shared[:804])
    assert 300 < sum(shared[804:]) < 700


@pytest.mark.parametrize("index", [28, 56, 98])
def test_fan_check_matches_the_fraction_rule(index):
    # seeded triangles, and triangles on which one fan of each size opens
    # to exactly 180 degrees, under every assignment: the check on the
    # code's corner halfplanes is the rule n * angle < 180 over all fans,
    # in Fraction degrees, and the rule on the largest fan of each letter
    code = load_default_corpus()[index].code
    rng = random.Random(index)
    seen = {True: 0, False: 0}
    for asg in all_assignments(code):
        sym = symbolic_tower(code, asg)
        tris = []
        for _ in range(20):
            a = rng.randrange(1, 17999)
            tris.append((Fraction(a, 100),
                         Fraction(rng.randrange(1, 18000 - a), 100)))
        for letter, n in {(f.letter, f.count) for f in sym.fans}:
            if n < 2:
                continue
            t = Fraction(rng.randrange(1, 1000), 1000)
            if letter == "X":
                x = Fraction(180, n)
                tris.append((x, t * (180 - x)))
            elif letter == "Y":
                y = Fraction(180, n)
                tris.append((t * (180 - y), y))
            else:
                rest = 180 - Fraction(180, n)
                tris.append((t * rest, (1 - t) * rest))
        for x, y in tris:
            want = all(f.count * symbol_degrees(f.letter, x, y) < 180
                       for f in sym.fans)
            assert all(n * form_degrees(form, x, y) < 180
                       for n, form in widest_fans(sym)) is want, (x, y)
            assert sym.at(x, y).fan_angles_below_180() is want, (x, y)
            seen[want] += 1
    assert seen[True] and seen[False]


# --- exact band verdicts ----------------------------------------------

def seeded_point(vertices, rng, near):
    """A weighted average of polygon vertices with integer weights in
    [1, 63]; ``near`` multiplies one weight by 10^5, which pulls the point
    next to that vertex, where margins are thin."""
    ws = [rng.randrange(1, 64) for _ in vertices]
    if near:
        ws[rng.randrange(len(ws))] *= 10 ** 5
    tot = sum(ws)
    return (sum(w * Fraction(v[0]) for w, v in zip(ws, vertices)) / tot,
            sum(w * Fraction(v[1]) for w, v in zip(ws, vertices)) / tot)


def verdict_digest_lines():
    """Status, exact margin and point counts of the three band tests (or
    the name of what they raise) at two seeded triangles of the first two
    plans of every third corpus entry up to length 40, at 7, 14 and 30
    digits."""
    rng = random.Random(17)
    for idx, entry in enumerate(load_default_corpus()):
        if idx % 3 or len(entry.code.codes) > 40:
            continue
        for asg in all_assignments(entry.code)[:2]:
            verts = angle_bounding_polygon(entry.code, asg).vertices
            if not verts:
                yield repr((idx, "empty"))
                continue
            sym = symbolic_tower(entry.code, asg)
            for near in (False, True):
                x, y = seeded_point(verts, rng, near)
                for precision in (7, 14, 30):
                    tower = sym.at(x, y, precision)
                    out = []
                    for check in (band_test, pruned_band_test, shape_test):
                        try:
                            v = check(tower)
                        except ValueError as exc:
                            out.append(type(exc).__name__)
                            continue
                        out.append((v.status, str(v.margin), v.blue_count,
                                    v.black_count))
                    yield repr((idx, str(x), str(y), precision, out))


# sha256 of verdict_digest_lines as the Fraction-interval scores printed it
# (420 lines: 247 passes, 757 fails, 4 indeterminates, 252 missing shapes)
FROZEN_VERDICT_DIGEST = \
    "e1d70da191560c92a9b21675fa1a809faaf2effd40dead9fa1a670f1e022ead3"


def test_frozen_band_verdict_digest():
    h = hashlib.sha256()
    lines = 0
    for line in verdict_digest_lines():
        h.update(line.encode() + b"\n")
        lines += 1
    assert lines == 420
    assert h.hexdigest() == FROZEN_VERDICT_DIGEST


# --- integer scores ---------------------------------------------------

def score_cases():
    """(symbolic tower, x, y): small codes at points of their bands, the
    worked example and corpus entry 56 inside their bounding polygons."""
    rng = random.Random(23)
    out = []
    for codes, first, second, x, y in [([1, 1, 1], "X", "Y", 60, 60),
                                       ([1, 2, 1, 2], "Z", "X", 30, 60),
                                       ([2, 2], "X", "Y", 40, 50)]:
        code = CodeSequence(codes)
        out.append((symbolic_tower(code, assign_angles(code, first, second)),
                    Fraction(x), Fraction(y)))
    worked = CodeSequence(WORKED_CODES)
    code56 = load_default_corpus()[56].code
    for code, asg in [(worked, assign_angles(worked, WORKED_FIRST,
                                             WORKED_SECOND)),
                      (code56, all_assignments(code56)[0])]:
        verts = angle_bounding_polygon(code, asg).vertices
        out.append((symbolic_tower(code, asg),
                    *seeded_point(verts, rng, False)))
    return out


@pytest.mark.parametrize("precision", [7, 30])
def test_scores_match_interval_products(precision):
    for sym, x, y in score_cases():
        tower = sym.at(x, y, precision)
        c, d = sym.shooting
        civ, div = c.eval(x, y, precision), d.eval(x, y, precision)
        assert tower.shooting_vector() == (civ, div)
        for p in sym.points:
            pxv = p.px.eval(x, y, precision)
            pyv = p.py.eval(x, y, precision)
            lo, hi, den = tower.score(p)
            assert all(isinstance(v, int) for v in (lo, hi, den))
            assert Interval(Fraction(lo, den), Fraction(hi, den)) == \
                div * pxv - civ * pyv


def test_vanishing_shooting_vector_raises_on_every_call():
    code = CodeSequence([1, 2, 1, 2])
    sym = SymbolicTower(code, assign_angles(code, "Z", "X"))
    sym.shooting = (TrigPoly(), TrigPoly())
    tower = sym.at(30, 60)
    for _ in range(2):
        with pytest.raises(PrecisionError):
            tower.score(sym.centers[0])
        with pytest.raises(PrecisionError):
            tower.shooting_vector()


def test_pruned_key_points_are_built_once():
    code = CodeSequence(WORKED_CODES)
    sym = SymbolicTower(code, assign_angles(code, WORKED_FIRST,
                                            WORKED_SECOND))
    first = pruned_key_points(sym)
    sym._scores.clear()
    # a second call, as every precision escalation of test_II makes,
    # neither rebuilds the list nor re-expands a score
    assert pruned_key_points(sym) is first
    assert not sym._scores


# --- pruning by probe ---------------------------------------------------

def reference_pruned(sym):
    """The pruning rule with every score expanded: the first key point of
    each (color, score polynomial)."""
    groups, out = set(), []
    for p in key_points(sym):
        key = (p.color, sym.score_poly(p))
        if key not in groups:
            groups.add(key)
            out.append(p)
    return tuple(out)


def test_pruned_key_points_match_the_expanded_rule_on_the_corpus():
    dropped = 0
    for entry in load_default_corpus():
        sym = SymbolicTower(entry.code, all_assignments(entry.code)[0])
        got = pruned_key_points(sym)
        assert got == reference_pruned(sym)
        dropped += len(key_points(sym)) - len(got)
    assert dropped > 0


@pytest.mark.parametrize("index", [56, 98])
def test_pruning_without_duplicates_expands_no_score(index):
    code = load_default_corpus()[index].code
    sym = SymbolicTower(code, all_assignments(code)[0])
    assert len(pruned_key_points(sym)) == len(key_points(sym))
    assert not sym._scores


@pytest.mark.parametrize("index", [14, 28, 56])
def test_a_probe_that_calls_every_pair_near_prunes_alike(index, monkeypatch):
    code = load_default_corpus()[index].code
    plans = [SymbolicTower(code, asg) for asg in all_assignments(code)]
    want = [pruned_key_points(sym) for sym in plans]
    monkeypatch.setattr(tower_module, "_NEAR", math.inf)
    for sym, pruned in zip(plans, want):
        sym._pruned = None
        assert pruned_key_points(sym) == pruned


# --- exact ties ---------------------------------------------------------

# corpus entry 28 under its first assignment: its black key point 0 and
# blue key point 15 score alike along x + y = 315/2, a diagonal of its
# bounding polygon; two seeded triangles on that line
TIE_CODE = [1, 1, 2, 1, 1, 6, 1, 1, 2, 2, 7]
TIE_POINTS = [(Fraction(431085, 4144), Fraction(221595, 4144)),
              (Fraction(361755, 3472), Fraction(185085, 3472))]


@pytest.mark.parametrize("x, y", TIE_POINTS)
def test_an_exact_tie_fails_with_margin_zero(x, y):
    code = CodeSequence(TIE_CODE)
    assert list(load_default_corpus()[28].code.codes) == TIE_CODE
    tower = unfold(code, all_assignments(code)[0], x, y, 7)
    got = [(v.status, v.margin, v.blue_count, v.black_count)
           for v in (band_test(tower), pruned_band_test(tower))]
    assert got == [("fail", 0, 26, 26), ("fail", 0, 17, 17)]


def test_the_tie_is_an_identity_on_its_line_only():
    code = CodeSequence(TIE_CODE)
    sym = SymbolicTower(code, all_assignments(code)[0])
    keys = pruned_key_points(sym)
    black, blue = keys[0], keys[15]
    assert (black.color, blue.color) == (BLACK, BLUE)
    diff = sym.score_poly(black) - sym.score_poly(blue)
    assert not diff.is_zero()
    line = _line_through((Fraction(315, 2), Fraction(0)),
                         (Fraction(0), Fraction(315, 2)))
    assert line == (2, 2, -315)
    assert _vanishes_on(diff, line)
    # at 30 digits the difference encloses 0 on the line, and not off it
    for x in (Fraction(100), Fraction(1051, 10), Fraction(431085, 4144)):
        assert 0 in diff.eval(x, Fraction(315, 2) - x, 30)
    assert 0 not in diff.eval(100, 55, 30)
    assert not _vanishes_on(diff, (1, 1, -155))     # phases off the 1/16 grid
    assert not _vanishes_on(diff, (1, 1, -135))     # x + y = 135


VANISHING_CASES = [
    # sin(4x + 4y) + 1 on x + y = 315/2: a constant, sin(630) = -1
    ({("sin", 4, 4): 1, ("cos", 0, 0): 1}, (2, 2, -315), True),
    ({("sin", 4, 4): 1, ("cos", 0, 0): -1}, (2, 2, -315), False),
    # sin(2x) - 1 on the vertical line x = 45
    ({("sin", 2, 0): 1, ("cos", 0, 0): -1}, (1, 0, -45), True),
    ({("sin", 2, 0): 1, ("cos", 0, 0): -1}, (1, 0, -135), False),
    # sin(x) - cos(y) on x + y = 90, a negative frequency folded over
    ({("sin", 1, 0): 1, ("cos", 0, 1): -1}, (1, 1, -90), True),
    ({("sin", 1, 0): 1, ("cos", 0, 1): -1}, (1, 1, -45), False),
    # sin(x) + sin(y) on x - y = 0 is 2 sin(x), not zero
    ({("sin", 1, 0): 1, ("sin", 0, 1): 1}, (-1, 1, 0), False),
    ({("sin", 1, 0): 1, ("sin", 0, 1): -1}, (-1, 1, 0), True),
    # sin(2x - 2y) on y = x: frequency 0, a real Z[zeta_16] sum (sin 0)
    ({("sin", 2, -2): 1}, (-1, 1, 0), True),
    ({("cos", 2, -2): 1}, (-1, 1, 0), False),
    # a phase of 10 degrees leaves Z[zeta_16]: undecided, so False
    ({("sin", 1, 0): 1, ("cos", 0, 1): -1}, (1, 1, -100), False),
]


@pytest.mark.parametrize("terms, line, want", VANISHING_CASES)
def test_vanishes_on_decides_identities_on_lines(terms, line, want):
    assert _vanishes_on(TrigPoly(terms), line) is want


def test_vanishes_on_reads_a_line_and_its_negation_alike():
    # a line's two integer forms run along opposite directions; the cases
    # above, and every black-minus-blue score difference of the tie code
    # on every line through a tie triangle along a face of its polygon or
    # through two of its vertices, as the tie search takes them
    for terms, (a, b, c), want in VANISHING_CASES:
        assert _vanishes_on(TrigPoly(terms), (-a, -b, -c)) is want
    code = CodeSequence(TIE_CODE)
    asg = all_assignments(code)[0]
    sym = SymbolicTower(code, asg)
    keys = pruned_key_points(sym)
    diffs = [sym.score_poly(p) - sym.score_poly(q) for p in keys
             if p.color == BLACK for q in keys if q.color == BLUE]
    poly = angle_bounding_polygon(code, asg)
    verts = poly.vertices
    ties = 0
    for x, y in TIE_POINTS:
        lines = {_normalize_line(*face) for face in poly.faces
                 if face[0] * x + face[1] * y + face[2] == 0}
        lines.update(_line_through(p, q) for i, p in enumerate(verts)
                     for q in verts[i + 1:]
                     if (q[1] - p[1]) * (x - p[0]) ==
                     (q[0] - p[0]) * (y - p[1]))
        assert (2, 2, -315) in lines
        for a, b, c in lines:
            for diff in diffs:
                got = _vanishes_on(diff, (a, b, c))
                assert _vanishes_on(diff, (-a, -b, -c)) is got
                ties += got
    assert ties


def test_separation_takes_the_least_black_and_the_greatest_blue():
    pairs = [(True, 5), (False, 2), (True, 3), (False, 4), (True, 7)]
    assert separation(pairs) == (3, 4)
    assert separation(iter(pairs)) == (3, 4)
    assert separation([(False, Fraction(1, 2)), (True, Fraction(1, 3))]) \
        == (Fraction(1, 3), Fraction(1, 2))


@pytest.mark.parametrize("pairs", [[], [(True, 1)], [(False, 1), (False, 2)]])
def test_separation_needs_both_colors(pairs):
    with pytest.raises(ValueError, match="both colors"):
        separation(pairs)


class _StubTower:
    """What ``_judge`` reads of a tower: no closure violation, and each
    point's integer score ends (lo, hi, den)."""

    @staticmethod
    def band_refuted():
        return False

    @staticmethod
    def score(point):
        return point.ends


@pytest.mark.parametrize("black, blue, want", [
    # ends over different denominators: least black lo 7/10, greatest
    # blue hi 1/4
    ([(7, 9, 10), (3, 5, 4)], [(1, 2, 8), (0, 1, 100)],
     ("pass", Fraction(9, 20))),
    ([(101, 300, 200)], [(1, 2, 4)], ("pass", Fraction(1, 200))),
    # a tie, least black lo 1/2 equal to greatest blue hi, is no pass
    ([(1, 3, 2)], [(1, 2, 4)], ("indeterminate", Fraction(0))),
    # least black hi 1/2 equal to greatest blue lo fails; just above, not
    ([(1, 2, 4)], [(4, 10, 8)], ("fail", Fraction(-1))),
    ([(1, 2, 4)], [(3, 10, 8)], ("indeterminate", Fraction(-1))),
])
def test_judge_decides_on_integer_ends(black, blue, want):
    points = [types.SimpleNamespace(color=color, ends=ends)
              for color, group in ((BLACK, black), (BLUE, blue))
              for ends in group]
    got = _judge(_StubTower(), points)
    assert (got.status, got.margin, got.blue_count, got.black_count) == \
        (*want, len(blue), len(black))
