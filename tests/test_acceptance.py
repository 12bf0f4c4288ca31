"""Gate checks for the shipped guarantees, one test per guarantee.

A verbose run reads as an eleven-line report: corpus integrity, automaton
equivalence, known-path regressions, unstable-line equations, shooting
angle formulas, the worked shooting-vector example, the full strip cover,
the thin-corner families, interval and gradient soundness, and agreement
with the bounce oracle.  Expected values were computed through the
independent oracle or recomputed by hand before being frozen here; the
verdict assertions carry no tolerance at all, the angle comparisons pin
one at 1e-6 degrees.
"""

import hashlib
import itertools
import random
import time
from fractions import Fraction

from _reference import (AffineForm, automaton_legal, contains_point,
                        reduces_to_empty)
from _worked_example import (C_REFERENCE, D_REFERENCE, reduce_on_line,
                             substitute_line)
from billiardpath.classify import (angle_bounding_polygon,
                                   canonical_unstable_line, classify_code,
                                   solve_theta)
from billiardpath.corpus import (default_corpus_text, load_default_corpus,
                                 parse_corpus_line)
from billiardpath.numeric import (Interval, TrigPoly, enclose_cos,
                                  enclose_sin, pi_enclosure)
from billiardpath.oracle import assignment_start, find_orbit
from billiardpath.prover import (PRESETS, Square, certify_square, cover,
                                 infinite_pattern, pattern_code,
                                 region_system)
from billiardpath.sequences import (AlphabetSequence, CodeSequence,
                                    all_assignments, assign_angles,
                                    form_degrees)
from billiardpath.tower import Triangle, symbolic_tower, unfold
from billiardpath.tower import test_I as band_test
from billiardpath.tower import test_II as pruned_band_test
from billiardpath.tower import test_III as shape_test

F = Fraction


def _poly_of(terms):
    p = TrigPoly()
    for coeff, kind, m, n in terms:
        p = p + TrigPoly.atom(kind, m, n, 0, coeff)
    return p


def _zy_system(code):
    for asg in all_assignments(code):
        if asg.symbol(1) == "Z" and asg.symbol(2) == "Y":
            return region_system(code, asg)
    raise AssertionError(f"no Z/Y labeling for {code}")


def test_01_shipped_corpus_verifies_completely():
    t0 = time.perf_counter()
    count = 0
    problems = []
    for lineno, line in enumerate(default_corpus_text().splitlines(),
                                  start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        count += 1
        try:
            entry = parse_corpus_line(line, where=f"line {lineno}")
        except ValueError as exc:
            problems.append(str(exc))
            continue
        got = classify_code(entry.code)
        if got != entry.kind:
            problems.append(f"line {lineno}: typed {entry.kind}, "
                            f"computed {got}")
    elapsed = time.perf_counter() - t0
    print(f"corpus: {count} entries, {len(problems)} discrepancies, "
          f"{elapsed:.3f}s")
    assert count == 134
    assert problems == []
    assert elapsed < 1.0


def test_02_automaton_agrees_with_cyclic_reduction():
    t0 = time.perf_counter()
    checked = 0
    for length in range(1, 13):
        for bits in itertools.product("OE", repeat=length):
            word = AlphabetSequence("".join(bits))
            assert automaton_legal(word) == reduces_to_empty(word), word
            checked += 1
    elapsed = time.perf_counter() - t0
    print(f"automaton: all {checked} words through length 12, {elapsed:.3f}s")
    assert checked == 2 ** 13 - 2
    assert elapsed < 10.0


def test_03_reference_paths_pass_and_thetas_match_oracle():
    orthic = CodeSequence([1, 1, 1])
    asg = all_assignments(orthic)[0]
    acute = unfold(orthic, asg, F(60), y=F(60))
    assert band_test(acute).status == "pass"
    assert pruned_band_test(acute).status == "pass"
    obtuse = unfold(orthic, asg, F(20), y=F(30))
    assert band_test(obtuse).status == "fail"
    assert pruned_band_test(obtuse).status == "fail"

    two = CodeSequence([2, 2])
    _, asg2 = canonical_unstable_line(two)
    assert shape_test(unfold(two, asg2, F(50), y=F(50))).status == "pass"

    repeat = CodeSequence([1, 2, 1, 2])
    _, asg4 = canonical_unstable_line(repeat)
    th = solve_theta(repeat, asg4)
    worst = 0.0
    for x in (10, 15, 20, 25, 30, 35, 40, 45, 50, 60):
        y = 90 - x
        assert shape_test(unfold(repeat, asg4, F(x), y=F(y))).status == "pass"
        orb = find_orbit(Triangle(F(x), F(y)), repeat, seed=0,
                         starts=[assignment_start(repeat, asg4)])
        assert orb is not None, f"no closed path found at ({x}, {y})"
        worst = max(worst, abs(orb.theta - float(form_degrees(th, x, y))))
    print(f"shooting angles on 10 right triangles: worst gap "
          f"{worst:.2e} deg")
    assert worst < 1e-6


def test_04_unstable_lines_have_expected_equations():
    cases = (
        ([2, 2], (1, -1, 0)),              # y = x
        ([1, 2, 1, 6], (1, -1, -1)),       # y = x + 90
        ([1, 1, 2, 1, 3, 2], (2, -1, 0)),  # y = 2x
        ([1, 2, 1, 2], (1, 1, 1)),         # x + y = 90
    )
    for codes, want in cases:
        line, _ = canonical_unstable_line(CodeSequence(codes))
        assert line == want, (codes, line)


def test_05_shooting_angle_formulas_are_exact():
    long_code = CodeSequence([1, 1, 1, 1, 2, 1, 1, 1, 1, 2])
    th = solve_theta(long_code, assign_angles(long_code, "X", "Y"))
    # x + y - 90, the 90 carried as one unit of the constant slot
    assert th == (1, 1, -1)

    bent = CodeSequence([1, 2, 1, 6])
    line, asg = canonical_unstable_line(bent)
    on_line = reduce_on_line(AffineForm(*solve_theta(bent, asg)), line)
    # 90 - 3x once restricted to the code's own line
    assert (on_line.ax, on_line.ay, on_line.c, on_line.t) == (-3, 0, 1, 0)


def test_06_worked_shooting_vector_matches_reference_sums():
    code = CodeSequence([1, 1, 2, 3, 3, 2])
    sym = symbolic_tower(code, assign_angles(code, "X", "Y"))
    c, d = sym.shooting
    cr, dr = _poly_of(C_REFERENCE), _poly_of(D_REFERENCE)
    assert len(cr.terms) == 9 and len(dr.terms) == 8
    # the reference sums fold one step through y = x, so compare there
    assert substitute_line(c, 1, 0).terms == substitute_line(cr, 1, 0).terms
    assert substitute_line(d, 1, 0).terms == substitute_line(dr, 1, 0).terms


def test_07_strip_cover_terminates_complete():
    t0 = time.perf_counter()
    corpus = load_default_corpus()
    result = cover(PRESETS["strip-75-80"], [e.code for e in corpus],
                   precision=7, max_depth=20)
    elapsed = time.perf_counter() - t0
    print(f"strip cover: {result.square_count} squares, min margin "
          f"{result.min_margin}, deepest level {result.max_depth_used}, "
          f"{elapsed:.0f}s")
    assert result.complete, [str(f) for f in result.failures]
    assert result.min_margin > 0
    assert result.square_count == 12148
    # the whole record (every center, code, margin and precision), frozen
    # as a sha256 before trig sums moved to one scaled-integer rule
    assert hashlib.sha256(result.to_text().encode()).hexdigest() == \
        "d7c124643e1e27e2ca248c84c2b2048f842910b23e64109043eb47865c81faa3"


def test_08_thin_corner_families_certify_for_first_ten_parameters():
    r = F(1, 256)
    worst = None
    for n in range(1, 11):
        # an interior point of the wedge between consecutive family lines
        x = F(45, 2 * n + 2)
        y = (360 - (2 * n + 3) * x) / 4
        wedge = infinite_pattern(x, y)
        assert (wedge.kind, wedge.n) == ("I", n)
        assert wedge.code == pattern_code("I", n)
        cert = certify_square(_zy_system(wedge.code), Square(x, y, r))
        assert cert.passed, (n, "I", cert.status)
        worst = cert.margin if worst is None else min(worst, cert.margin)

        # a point on the line (n+1)x + 2y = 180 itself
        x = F(45, n)
        y = (180 - (n + 1) * x) / 2
        on_line = infinite_pattern(x, y)
        assert (on_line.kind, on_line.n) == ("II", n)
        assert on_line.code == pattern_code("II", n)
        cert = certify_square(_zy_system(on_line.code), Square(x, y, r))
        assert cert.passed, (n, "II", cert.status)
        worst = min(worst, cert.margin)
    print(f"thin-corner families: 20 certified samples, worst margin "
          f"{worst}")


def _random_interval(rng):
    a = F(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 1000))
    b = F(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 1000))
    return Interval(min(a, b), max(a, b))


def test_09_trig_enclosures_contain_higher_precision_recomputation():
    rng = random.Random(9)
    t0 = time.perf_counter()
    for _ in range(5000):
        angle = F(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 997))
        for enclose in (enclose_sin, enclose_cos):
            rough = enclose(angle, 7)
            fine = enclose(angle, 30)
            assert rough.lo <= fine.lo and fine.hi <= rough.hi, \
                (angle, rough, fine)
    for _ in range(10000):
        a = _random_interval(rng)
        b = _random_interval(rng)
        assert a + b == Interval(a.lo + b.lo, a.hi + b.hi)
        assert a - b == Interval(a.lo - b.hi, a.hi - b.lo)
        ps = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
        assert a * b == Interval(min(ps), max(ps))
    print(f"interval soundness: 10000 enclosures and 10000 ring-op "
          f"triples, {time.perf_counter() - t0:.1f}s")


def _random_poly(rng):
    p = TrigPoly()
    for _ in range(rng.randrange(1, 7)):
        kind = rng.choice(("sin", "cos"))
        m = rng.randrange(-8, 9)
        n = rng.randrange(-8, 9)
        coeff = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
        p = p + TrigPoly.atom(kind, m, n, 0, coeff)
    return p


def _offset(rng, r):
    return r * F(rng.randrange(-64, 65), 64)


def test_10_coefficient_sweep_bounds_sampled_variation():
    rng = random.Random(10)
    rad_hi = pi_enclosure(7).hi / 180
    t0 = time.perf_counter()
    for _ in range(1000):
        f = _random_poly(rng)
        g = f.gradient_bound()
        cx = F(rng.randrange(-72000, 72000), 800)
        cy = F(rng.randrange(-72000, 72000), 800)
        r = F(1, 2 ** rng.randrange(0, 9))
        p = (cx + _offset(rng, r), cy + _offset(rng, r))
        q = (cx + _offset(rng, r), cy + _offset(rng, r))
        fp = f.eval(p[0], p[1], 7)
        fq = f.eval(q[0], q[1], 7)
        d = max(abs(p[0] - q[0]), abs(p[1] - q[1]))
        seen = max(fp.hi - fq.lo, fq.hi - fp.lo)
        allowance = rad_hi * g * d + (fp.hi - fp.lo) + (fq.hi - fq.lo)
        assert seen <= allowance, (f.terms, p, q)
    print(f"gradient soundness: 1000 sampled pairs within squares, "
          f"{time.perf_counter() - t0:.1f}s")


def test_11_band_test_agrees_with_bounce_oracle():
    corpus = load_default_corpus()
    rng = random.Random(11)
    t0 = time.perf_counter()
    decided = passes = 0
    attempts = 0
    while decided < 200:
        attempts += 1
        assert attempts < 2000, "sampling stalled"
        entry = rng.choice(corpus)
        asg = all_assignments(entry.code)[0]
        poly = angle_bounding_polygon(entry.code, asg)
        if poly.is_empty:
            continue
        verts = poly.vertices
        ws = [F(rng.randrange(1, 64)) for _ in verts]
        tot = sum(ws)
        x = sum(w * vx for w, (vx, _) in zip(ws, verts)) / tot
        y = sum(w * vy for w, (_, vy) in zip(ws, verts)) / tot
        if not contains_point(poly, x, y, strict=True):
            continue
        verdict = None
        for precision in (7, 14, 30):
            v = pruned_band_test(unfold(entry.code, asg, x, y=y,
                                        precision=precision))
            if v.status != "indeterminate":
                verdict = v.status
                break
        if verdict is None:
            continue
        orb = find_orbit(Triangle(x, y), entry.code, seed=0,
                         starts=[assignment_start(entry.code, asg)])
        assert (verdict == "pass") == (orb is not None), \
            (entry.code, float(x), float(y), verdict, orb)
        decided += 1
        passes += verdict == "pass"
    print(f"oracle agreement: 200 decided pairs, {passes} with closed "
          f"paths, {time.perf_counter() - t0:.1f}s")
