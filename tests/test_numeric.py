"""Interval arithmetic, enclosures, and trig-sum algebra."""

import random
from fractions import Fraction as F

import pytest

from billiardpath.numeric import (
    AffineForm,
    Interval,
    TrigPoly,
    enclose_cos,
    enclose_sin,
    half_pi_enclosure,
    pi_enclosure,
    simplify,
)


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
    assert Interval(1, 4).contains_interval(Interval(2, 3))
    assert not Interval(2, 3).contains_interval(Interval(1, 4))


def test_half_pi_enclosure_precision_7():
    # the coarse quarter-turn bracket must still contain the tight
    # eight-digit one
    hp = half_pi_enclosure(7)
    assert hp.lo <= F(157079631, 10 ** 8)
    assert F(157079637, 10 ** 8) <= hp.hi
    assert hp.width() <= F(2, 10 ** 7)


def test_pi_enclosure_nesting():
    outer = pi_enclosure(7)
    for p in (8, 12, 20, 30):
        inner = pi_enclosure(p)
        assert outer.contains_interval(inner)
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
        assert coarse.contains_interval(fine)
        assert coarse.width() <= F(3, 10 ** 7)
        assert fine.width() <= F(3, 10 ** 30)


def test_enclosure_soundness_random_sample():
    rng = random.Random(20260822)
    for _ in range(300):
        ang = F(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 10 ** 4))
        for fn in (enclose_sin, enclose_cos):
            coarse = fn(ang, 7)
            fine = fn(ang, 30)
            assert coarse.contains_interval(fine), ang


def test_minimum_precision_enforced():
    with pytest.raises(ValueError):
        enclose_sin(10, 6)


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
        assert f.eval(x, y, 7).contains_interval(f.eval(x, y, 30))


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
         + TrigPoly.constant(F(5, 2)))
    prod = TrigPoly.atom("sin", 1, -1) * u
    q = prod.divide_by_atom("sin", 1, -1)
    assert q is not None and q.terms == u.terms


def test_divide_by_atom_rejects_non_multiple():
    u = TrigPoly.atom("cos", 2, 1) + TrigPoly.constant(1)
    f = TrigPoly.atom("sin", 1, -1) * u + TrigPoly.atom("cos", 3, 2)
    assert f.divide_by_atom("sin", 1, -1) is None


def test_substitute_line():
    h = TrigPoly.atom("sin", 2, 7) - TrigPoly.atom("sin", 0, 5)
    assert h.substitute_line(1, 0).terms == {("sin", 9, 0): F(1),
                                             ("sin", 5, 0): F(-1)}
    # y = x + 90 turns sin(x+y) into cos(2x)
    assert TrigPoly.atom("sin", 1, 1).substitute_line(1, 1).terms == \
        {("cos", 2, 0): F(1)}
    with pytest.raises(ValueError):
        TrigPoly.atom("sin", 1, 1).substitute_line(F(1, 2), 0)


def test_integerized():
    f = TrigPoly.atom("sin", 1, 0, 0, F(3, 2)) + \
        TrigPoly.atom("cos", 0, 1, 0, F(-9, 4))
    g, factor = f.integerized()
    assert factor == F(4, 3)
    assert g.terms == {("sin", 1, 0): F(2), ("cos", 0, 1): F(-3)}


def test_affine_form_theta_substitution():
    t = AffineForm.var_theta()
    phi = AffineForm.const(180) - t - 2 * AffineForm.var_x()
    th = AffineForm(1, 1, -1, 0)
    out = phi.substitute_theta(th)
    assert out.eval(30, 70) == 180 - (30 + 70 - 90) - 60
    with pytest.raises(ValueError):
        phi.eval(30, 70)


def test_affine_z_identity():
    z = AffineForm.var_z()
    assert z.eval(40, 60) == 80
    assert (AffineForm.var_x() + AffineForm.var_y() + z).eval(11, 22) == 180
