"""Interval arithmetic, enclosures, and trig-sum algebra."""

import math
import random
from fractions import Fraction as F

import pytest

from _reference import symbol_degrees
from _worked_example import substitute_line
from billiardpath.numeric import (
    Interval,
    TrigPoly,
    _GUARD,
    _canon_atom,
    _pi_bracket,
    _sin_series_bracket,
    atom_product,
    enclose_cos,
    enclose_sin,
    pi_enclosure,
    quantize_outward,
    simplify,
    sin_scaled,
)
from billiardpath.sequences import SYMBOL_FORMS, form_degrees


def test_interval_ring_ops():
    assert Interval(1, 2) + Interval(3, 4) == Interval(4, 6)
    assert Interval(1, 2) - Interval(3, 4) == Interval(-3, -1)
    assert Interval(-1, 2) * Interval(3, 4) == Interval(-4, 8)


def test_interval_mul_sign_cases():
    assert Interval(-2, -1) * Interval(-3, 5) == Interval(-10, 6)
    assert Interval(0, 0) * Interval(-9, 9) == Interval(0, 0)
    assert -Interval(1, 2) == Interval(-2, -1)
    assert Interval(1, 3) * F(-2) == Interval(-6, -2)


def test_interval_invariants():
    with pytest.raises(ValueError):
        Interval(2, 1)
    assert F(3, 2) in Interval(1, 2)


def test_pi_enclosure_nesting():
    outer = pi_enclosure(7)
    for p in (8, 12, 20, 30):
        inner = pi_enclosure(p)
        assert outer.lo <= inner.lo and inner.hi <= outer.hi
        outer = inner


def test_exact_angle_shortcuts():
    assert enclose_cos(90) == Interval(0, 0)
    assert enclose_sin(30) == Interval(F(1, 2), F(1, 2))
    assert enclose_sin(0) == Interval(0, 0)
    assert enclose_sin(90) == Interval(1, 1)
    assert enclose_sin(150) == Interval(F(1, 2), F(1, 2))
    assert enclose_sin(-30) == Interval(F(-1, 2), F(-1, 2))
    assert enclose_cos(180) == Interval(-1, -1)
    assert enclose_cos(60) == Interval(F(1, 2), F(1, 2))


def test_enclosure_at_higher_precision_is_contained():
    for ang in (F(137, 10), F(1, 3), F(89, 1), F(200), F(-513, 7)):
        coarse = enclose_sin(ang, 7)
        fine = enclose_sin(ang, 30)
        assert coarse.lo <= fine.lo and fine.hi <= coarse.hi
        assert coarse.width() <= F(3, 10 ** 7)
        assert fine.width() <= F(3, 10 ** 30)


def test_enclosure_soundness_random_sample():
    rng = random.Random(20260822)
    for _ in range(300):
        ang = F(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 10 ** 4))
        for fn in (enclose_sin, enclose_cos):
            coarse = fn(ang, 7)
            fine = fn(ang, 30)
            assert coarse.lo <= fine.lo and fine.hi <= coarse.hi, ang


def test_minimum_precision_enforced():
    with pytest.raises(ValueError):
        enclose_sin(10, 6)
    # the precision floor is checked before the exact-value shortcuts
    for ang in (0, 30, 90):
        with pytest.raises(ValueError):
            enclose_sin(ang, 6)
        with pytest.raises(ValueError):
            enclose_cos(ang, 6)
        with pytest.raises(ValueError):
            sin_scaled(ang, 1, 6)


def reference_enclose_sin(angle, precision):
    """The enclosure in Fraction arithmetic, as it was computed before the
    integer kernel: the reference the kernel must match endpoint for
    endpoint."""
    if precision < 7:
        raise ValueError(f"precision {precision} below minimum 7")
    a = F(angle) % 360
    neg = False
    if a > 180:
        a -= 180
        neg = True
    if a > 90:
        a = 180 - a
    exact = {F(0): F(0), F(30): F(1, 2), F(90): F(1)}.get(a)
    if exact is not None:
        v = -exact if neg else exact
        return Interval(v, v)
    work = precision + _GUARD
    scale = 10 ** work
    p_lo, p_hi = _pi_bracket(work)
    t = a * F(p_lo, scale) / 180
    s_lo, s_hi = _sin_series_bracket(t.numerator, t.denominator, scale)
    slack = a * F(p_hi - p_lo, scale) / 180
    lo = max(F(s_lo, scale) - slack, F(0))
    hi = min(F(s_hi, scale) + slack, F(1))
    iv = Interval(-hi, -lo) if neg else Interval(lo, hi)
    return quantize_outward(iv, precision)


# Angles whose series bound lands exactly on a grid point at precision 7,
# 14 or 30 (lower end, then upper end; found by bisection on the bound), so
# that only the pi bracket's slack pushes the rounded end one step outward.
GRID_EDGE_ANGLES = (
    F(200000034555988179, 10 ** 16),
    F(31250003168857033, 625 * 10 ** 12),
    F(2000000000000007725012017, 10 ** 23),
    F(5000000000000017513522493, 10 ** 23),
    F(10000000000000000000000000000022572762551, 5 * 10 ** 38),
    F(50000000000000000000000000000051995623053, 10 ** 39),
)


def kernel_angles():
    rng = random.Random(20261018)
    angles = [F(15 * k) for k in range(-60, 61)]          # exact and near
    angles += [a for e in GRID_EDGE_ANGLES for a in (e, -e, 180 - e)]
    angles += [F(k, 2) for k in range(-1441, 1442, 37)]   # half degrees
    angles += [F(rng.randrange(-10 ** 5, 10 ** 5), 7) for _ in range(40)]
    angles += [F(rng.choice((-1, 1)) * rng.randrange(721 * 10 ** 6,
                                                     10 ** 10), 10 ** 6)
               for _ in range(40)]                         # beyond +-720
    angles += [F(rng.randrange(-10 ** 9, 10 ** 9), rng.randrange(1, 10 ** 6))
               for _ in range(120)]
    return angles


def test_sin_kernel_matches_fraction_reference():
    rng = random.Random(5)
    for ang in kernel_angles():
        for p in (7, 8, 14, 30):
            ref = reference_enclose_sin(ang, p)
            s = 10 ** p
            assert enclose_sin(ang, p) == ref, (ang, p)
            assert enclose_cos(ang, p) == reference_enclose_sin(ang + 90, p)
            # the kernel takes any representation of the ratio
            k = rng.randrange(1, 1000)
            lo, hi = sin_scaled(ang.numerator * k, ang.denominator * k, p)
            assert (F(lo, s), F(hi, s)) == (ref.lo, ref.hi), (ang, k, p)


def test_memoized_kernel_matches_the_plain_one():
    # each angle a with num and den scaled by k, -a, 180 - a and a + 360,
    # and the exact angles: one memo per denominator and precision, warm
    # or cold, gives exactly the plain kernel's pair; every variant of a
    # at one denominator folds onto one entry
    rng = random.Random(16)
    bases = [F(0), F(30), F(90), F(1, 3), F(45), F(89, 7), F(-1234567, 1000)]
    bases += [F(rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 4))
              for _ in range(20)]
    for p in (7, 14, 30):
        memos = {}
        for a in bases:
            k = rng.randrange(2, 1000)
            for num, den in ((a.numerator, a.denominator),
                             (k * a.numerator, k * a.denominator)):
                memo = memos.setdefault(den, {})
                for shifted in (num, -num, 180 * den - num, num + 360 * den):
                    want = sin_scaled(shifted, den, p)
                    for _ in range(2):  # cold, then from the memo
                        assert sin_scaled(shifted, den, p, memo) == want, \
                            (shifted, den, p)
        # one entry per angle and denominator
        assert sum(map(len, memos.values())) <= 2 * len(bases)
    for num, want in ((0, (0, 0)), (30, (5 * 10 ** 6, 5 * 10 ** 6)),
                      (90, (10 ** 7, 10 ** 7)), (-90, (-10 ** 7, -10 ** 7)),
                      (210, (-5 * 10 ** 6, -5 * 10 ** 6))):
        memo = {}
        assert sin_scaled(num, 1, 7, memo) == sin_scaled(num, 1, 7) == want
        assert sin_scaled(num, 1, 7, memo) == want


def test_sin_kernel_contains_mpmath_value():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        slack = mpmath.mpf(10) ** -45  # mpmath's own rounding
        for ang in kernel_angles()[::3]:
            rad = mpmath.mpf(ang.numerator) / ang.denominator * mpmath.pi / 180
            for p in (7, 14, 30):
                s = 10 ** p
                for num, value in ((ang.numerator, mpmath.sin(rad)),
                                   (ang.numerator + 90 * ang.denominator,
                                    mpmath.cos(rad))):
                    lo, hi = sin_scaled(num, ang.denominator, p)
                    assert mpmath.mpf(lo) / s - slack <= value, (ang, p)
                    assert value <= mpmath.mpf(hi) / s + slack, (ang, p)


def test_simplify_square_of_sine():
    p = simplify([(1, [("sin", 0, 1, 0), ("sin", 0, 1, 0)])])
    assert p.terms == {("cos", 0, 0): F(1), ("cos", 0, 2): F(-1)}


def test_simplify_folds_straight_angle():
    # sin(180 - x - y) * cos(x + 6y), doubled
    p = simplify([(1, [("sin", -1, -1, 2), ("cos", 1, 6, 0)])])
    assert p.terms == {("sin", 2, 7): F(1), ("sin", 0, 5): F(-1)}


def test_simplify_is_linear_over_products():
    a = simplify([(2, [("cos", 1, 0, 0)]), (-1, [("sin", 1, 1, 1)])])
    # sin(A + 90) folds to cos(A)
    assert a.terms == {("cos", 1, 0): F(4), ("cos", 1, 1): F(-2)}


def test_gradient_bound_examples():
    assert TrigPoly.atom("sin", 2, -7).gradient_bound() == 9
    assert TrigPoly.atom("sin", 0, 1, 0, -2).gradient_bound() == 2
    assert TrigPoly().gradient_bound() == 0


def test_eval_simple_points():
    f = TrigPoly.atom("sin", 1, 0) + TrigPoly.atom("sin", 0, 1)
    assert 1 in f.eval(30, 30, 7)
    g = TrigPoly.atom("cos", 1, 1)
    assert 0 in g.eval(45, 45, 7)


def test_eval_matches_high_precision():
    rng = random.Random(7)
    for _ in range(25):
        f = TrigPoly()
        for _ in range(rng.randrange(1, 5)):
            f = f + TrigPoly.atom(rng.choice(("sin", "cos")),
                                  rng.randrange(-6, 7), rng.randrange(-6, 7),
                                  0, F(rng.randrange(-5, 6)))
        x = F(rng.randrange(0, 900), 10)
        y = F(rng.randrange(0, 900), 10)
        coarse, fine = f.eval(x, y, 7), f.eval(x, y, 30)
        assert coarse.lo <= fine.lo and fine.hi <= coarse.hi


def test_simplify_agrees_with_direct_interval_product():
    rng = random.Random(99)
    for _ in range(40):
        atoms = [(rng.choice(("sin", "cos")), rng.randrange(-4, 5),
                  rng.randrange(-4, 5), rng.randrange(-2, 3))
                 for _ in range(rng.randrange(1, 4))]
        coeff = F(rng.randrange(-3, 4))
        p = simplify([(coeff, atoms)])
        x, y = F(rng.randrange(1, 179)), F(rng.randrange(1, 179))
        direct = Interval.exact(2 * coeff)
        for kind, m, n, q in atoms:
            ang = m * x + n * y + 90 * q
            direct = direct * (enclose_sin(ang, 14) if kind == "sin"
                               else enclose_cos(ang, 14))
        via = p.eval(x, y, 14)
        assert via.lo <= direct.hi and direct.lo <= via.hi


def test_gradient_bound_is_sound():
    rng = random.Random(4242)
    pi_hi = pi_enclosure(14).hi
    for _ in range(30):
        f = TrigPoly()
        for _ in range(rng.randrange(1, 4)):
            f = f + TrigPoly.atom(rng.choice(("sin", "cos")),
                                  rng.randrange(-5, 6), rng.randrange(-5, 6),
                                  0, F(rng.randrange(-4, 5)))
        g = f.gradient_bound()
        cx, cy = F(rng.randrange(10, 170)), F(rng.randrange(10, 170))
        r = F(1, rng.randrange(2, 50))
        p = (cx + r * F(rng.randrange(-100, 101), 100),
             cy + r * F(rng.randrange(-100, 101), 100))
        q = (cx + r * F(rng.randrange(-100, 101), 100),
             cy + r * F(rng.randrange(-100, 101), 100))
        fp = f.eval(p[0], p[1], 14)
        fq = f.eval(q[0], q[1], 14)
        mid_gap = abs((fp.lo + fp.hi) / 2 - (fq.lo + fq.hi) / 2)
        slack = fp.width() / 2 + fq.width() / 2
        assert mid_gap <= g * 2 * r * pi_hi / 180 + slack


def test_product_to_sum_round_trip():
    u = (TrigPoly.atom("cos", 1, 0, 0, 3) + TrigPoly.atom("sin", 0, 2)
         + TrigPoly.atom("cos", 0, 0, 0, F(5, 2)))
    prod = TrigPoly.atom("sin", 1, -1) * u
    q = prod.divide_by_atom("sin", 1, -1)
    assert q is not None and q.terms == u.terms


def test_divide_by_atom_rejects_non_multiple():
    u = TrigPoly.atom("cos", 2, 1) + TrigPoly.atom("cos", 0, 0)
    f = TrigPoly.atom("sin", 1, -1) * u + TrigPoly.atom("cos", 3, 2)
    assert f.divide_by_atom("sin", 1, -1) is None


def test_substitute_line():
    h = TrigPoly.atom("sin", 2, 7) - TrigPoly.atom("sin", 0, 5)
    assert substitute_line(h, 1, 0).terms == {("sin", 9, 0): F(1),
                                              ("sin", 5, 0): F(-1)}
    # y = x + 90 turns sin(x+y) into cos(2x)
    assert substitute_line(TrigPoly.atom("sin", 1, 1), 1, 1).terms == \
        {("cos", 2, 0): F(1)}
    with pytest.raises(ValueError):
        substitute_line(TrigPoly.atom("sin", 1, 1), F(1, 2), 0)


# --- integer coefficients against the Fraction rule ---------------------

def reference_add(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, F(0)) + c
        if not out[key]:
            del out[key]
    return out


def reference_mul(a, b):
    """Product-to-sum on {key: Fraction} dicts, each term carrying c1*c2/2."""
    out = {}
    for (k1, m1, n1), c1 in a.items():
        for (k2, m2, n2), c2 in b.items():
            c = c1 * c2 / 2
            s, d = (m1 + m2, n1 + n2), (m1 - m2, n1 - n2)
            if k1 == k2:
                pairs = [("cos", d, c), ("cos", s, -c if k1 == "sin" else c)]
            else:
                pairs = [("sin", s, c), ("sin", d, c if k1 == "sin" else -c)]
            for kind, (m, n), v in pairs:
                sign, key = _canon_atom(kind, m, n, 0)
                if key is not None:
                    out = reference_add(out, {key: sign * v})
    return out


def random_coeff(rng):
    num = rng.randrange(-9, 10)
    return F(num, rng.choice((1, 1, 2, 4, 8, 3, 6)))


def random_poly(rng):
    terms = {}
    for _ in range(rng.randrange(0, 6)):
        sign, key = _canon_atom(rng.choice(("sin", "cos")),
                                rng.randrange(-4, 5), rng.randrange(-4, 5), 0)
        if key is not None:
            terms = reference_add(terms, {key: sign * random_coeff(rng)})
    return terms


def assert_canonical(p):
    assert p.den > 0
    assert all(isinstance(c, int) and c for c in p.coeffs.values())
    if p.coeffs:
        assert math.gcd(p.den, *p.coeffs.values()) == 1
    else:
        assert p.den == 1


def reference_eval(terms, x, y, precision):
    """The enclosure of a trig sum in Fraction arithmetic, one interval per
    term, as ``TrigPoly.eval`` computed it before the integer rule."""
    lo = hi = F(0)
    for (kind, m, n), c in terms.items():
        iv = (enclose_sin if kind == "sin" else enclose_cos)(m * x + n * y,
                                                             precision)
        lo += c * (iv.lo if c > 0 else iv.hi)
        hi += c * (iv.hi if c > 0 else iv.lo)
    return Interval(lo, hi)


def test_integer_coefficients_match_fraction_rule():
    rng = random.Random(2718)
    for _ in range(400):
        ra, rb = random_poly(rng), random_poly(rng)
        a, b = TrigPoly(ra), TrigPoly(rb)
        assert a.terms == ra and b.terms == rb
        k = random_coeff(rng)
        cases = [(a + b, reference_add(ra, rb)),
                 (a - b, reference_add(ra, {key: -c for key, c in rb.items()})),
                 (-a, {key: -c for key, c in ra.items()}),
                 (a * b, reference_mul(ra, rb)),
                 (a.scaled(k), {key: c * k for key, c in ra.items() if k})]
        for got, want in cases:
            assert_canonical(got)
            assert got.terms == want
            assert got == TrigPoly(want) and hash(got) == hash(TrigPoly(want))
        assert (a + b) - b == a
        g = sum((abs(c) * (abs(m) + abs(n)) for (_, m, n), c in ra.items()),
                F(0))
        assert a.gradient_bound() == g
        if rng.randrange(2):
            x, y = F(rng.randrange(1, 900), 10), F(rng.randrange(1, 900), 10)
        else:
            # large coprime denominators: the homogeneous point's W is
            # their product
            x = F(rng.randrange(1, 90 * 100003), 100003)
            y = F(rng.randrange(1, 90 * 99991), 99991)
        assert a.eval(x, y) == reference_eval(ra, x, y, 7)
        for p in (7, 14, 30):
            # one cache shared by two polynomials at one point
            cache = {}
            assert a.eval(x, y, p, cache) == reference_eval(ra, x, y, p)
            assert b.eval(x, y, p, cache) == reference_eval(rb, x, y, p)
            assert a.eval(x, y, p, cache) == reference_eval(ra, x, y, p)


def reference_simplify(products):
    """``simplify`` by the Fraction rule: each doubled coefficient times
    the folded atoms, multiplied out by ``reference_mul``."""
    want = {}
    for coeff, atoms in products:
        term = {("cos", 0, 0): 2 * F(coeff)} if coeff else {}
        for kind, m, n, q in atoms:
            sign, key = _canon_atom(kind, m, n, q)
            term = reference_mul(term, {key: F(sign)}) if key else {}
        want = reference_add(want, term)
    return want


def random_atoms(rng, count):
    return [(rng.choice(("sin", "cos")), rng.randrange(-4, 5),
             rng.randrange(-4, 5), rng.randrange(-2, 3))
            for _ in range(count)]


def test_simplify_matches_fraction_rule():
    rng = random.Random(314)
    for _ in range(200):
        products = [(random_coeff(rng), random_atoms(rng, rng.randrange(0, 4)))
                    for _ in range(rng.randrange(0, 4))]
        got = simplify(products)
        assert_canonical(got)
        assert got.terms == reference_simplify(products)


@pytest.mark.parametrize("count", [1, 2, 3])
def test_simplify_matches_fraction_rule_per_atom_count(count):
    # integer coefficients, as the towers pass them, and Fractions; the
    # second atom of a pair often repeats the first's argument, so sums
    # cancel and sin(0) drops out
    rng = random.Random(count)
    for _ in range(150):
        products = []
        for _ in range(rng.randrange(1, 4)):
            atoms = random_atoms(rng, count)
            if count > 1 and rng.randrange(2):
                kind, m, n, q = atoms[0]
                atoms[1] = (rng.choice(("sin", "cos")), m, n,
                            rng.randrange(-2, 3))
            coeff = rng.choice((rng.randrange(-3, 4), random_coeff(rng)))
            products.append((coeff, atoms))
        got = simplify(products)
        assert_canonical(got)
        assert got.terms == reference_simplify(products)


def test_atom_product_is_simplify_of_one_pair():
    # the towers' steps: an integer coefficient times two atoms, the
    # second often on the first's argument (sums cancel, sin(0) drops
    # out) or vanishing itself; same polynomial, key order and
    # denominator as the general expander
    rng = random.Random(25)
    for _ in range(600):
        a, b = random_atoms(rng, 2)
        if rng.randrange(2):
            b = (rng.choice(("sin", "cos")), a[1], a[2], rng.randrange(-2, 3))
        if not rng.randrange(8):
            b = ("sin", 0, 0, rng.choice((0, 2)))
        coeff = rng.randrange(-3, 4)
        got, want = atom_product(coeff, a, b), simplify([(coeff, [a, b])])
        assert_canonical(got)
        assert got == want and list(got.coeffs) == list(want.coeffs)


def test_total_is_the_chained_sum():
    rng = random.Random(26)
    for _ in range(200):
        polys = [TrigPoly(random_poly(rng)) for _ in range(rng.randrange(5))]
        want = TrigPoly()
        for p in polys:
            want = want + p
        got = TrigPoly.total(polys)
        assert_canonical(got)
        assert got == want
        assert TrigPoly.total(iter(polys)) == want


def test_affine_z_identity():
    assert form_degrees(SYMBOL_FORMS["Z"], 40, 60) == 80
    assert symbol_degrees("Z", F(1, 3), 60) == F(359, 3)
    total = tuple(map(sum, zip(*SYMBOL_FORMS.values())))
    assert total == (0, 0, 2) and form_degrees(total, 11, 22) == 180
