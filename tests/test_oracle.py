import math
import random
from fractions import Fraction

import pytest

from billiardpath.classify import angle_bounding_polygon, solve_theta
from billiardpath.corpus import load_default_corpus
from billiardpath.oracle import (RayState, assignment_start, find_orbit,
                                 start_assignment, trace,
                                 unfold_by_reflection)
from billiardpath.sequences import (CodeSequence, all_assignments,
                                    assign_angles, code_to_side,
                                    form_degrees)
from billiardpath.tower import Triangle, symbolic_tower, unfold
from billiardpath.tower import test_I as band_test
from billiardpath.tower import test_II as pruned_band_test


def theta_value(form, x, y):
    return float(form_degrees(form, x, y))


class TestTrace:
    def test_generic_ray_bounces_legally(self):
        tri = Triangle(55, 65)
        run = trace(tri, RayState(1, 0.37, 77.0), 50)
        assert not run.vertex_hit
        assert len(run.sides) == 50
        prev = 1
        for s in run.sides:
            assert s in (1, 2, 3) and s != prev
            prev = s

    def test_aim_at_apex_flags_vertex(self):
        # the third corner of the equilateral sits right above the first
        # side's midpoint
        tri = Triangle(60, 60)
        run = trace(tri, RayState(1, 0.5, 90.0), 10)
        assert run.vertex_hit
        assert run.sides == ()

    def test_bad_starts_rejected(self):
        with pytest.raises(ValueError):
            RayState(4, 0.5, 90.0)
        with pytest.raises(ValueError):
            RayState(1, 1.5, 90.0)
        with pytest.raises(ValueError, match="interior"):
            trace(Triangle(60, 60), RayState(1, 0.5, -90.0), 5)

    def test_orbit_trace_expands_code(self):
        tri = Triangle(30, 60)
        code = CodeSequence([1, 2, 1, 2])
        got = find_orbit(tri, code)
        assert got is not None
        target = code_to_side(code, got.start_pair).symbols
        want = (target[1:] + (target[0],)) * 2
        run = trace(tri, got.start, 2 * code.total())
        assert not run.vertex_hit
        assert run.sides == want


    @pytest.mark.parametrize("x, y", [("1e-200", 90), (90, "1e-200"),
                                      ("1e-140", "1e-140")])
    def test_triangle_too_thin_for_doubles_rejected(self, x, y):
        # a side's squared length or twice the area is 0.0 in doubles
        tri = Triangle(Fraction(x), Fraction(y))
        for side in (1, 2, 3):
            with pytest.raises(ValueError, match="too thin for doubles"):
                trace(tri, RayState(side, 0.5, 100.0), 5)
        with pytest.raises(ValueError, match="too thin for doubles"):
            find_orbit(tri, CodeSequence([1, 1, 1]))


class TestFindOrbit:
    def test_equilateral_midpoint_orbit(self):
        got = find_orbit(Triangle(60, 60), CodeSequence([1, 1, 1]))
        assert got is not None
        assert abs(got.start.t - 0.5) < 1e-9
        assert abs(got.theta - 60.0) < 1e-9
        assert got.residual < 1e-9

    def test_right_triangle_band_orbit(self):
        got = find_orbit(Triangle(30, 60), CodeSequence([1, 2, 1, 2]))
        assert got is not None
        assert got.residual < 1e-9

    def test_obtuse_has_no_triangle_orbit(self):
        assert find_orbit(Triangle(20, 30), CodeSequence([1, 1, 1])) is None

    def test_theta_matches_symbolic_solution(self):
        for x, y, codes in [(60, 60, [1, 1, 1]), (30, 60, [1, 2, 1, 2]),
                            (64, 56, [1, 1, 1])]:
            tri = Triangle(x, y)
            code = CodeSequence(codes)
            got = find_orbit(tri, code)
            assert got is not None
            asg = assign_angles(code, *start_assignment(code, got.start_pair))
            form = solve_theta(code, asg)
            assert form is not None
            assert abs(got.theta - theta_value(form, x, y)) < 1e-6

    def test_start_pair_roundtrip(self):
        for codes in ([1, 2, 1, 2], [1, 1, 2, 3, 3, 2]):
            code = CodeSequence(codes)
            for pair in ((1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)):
                letters = start_assignment(code, pair)
                assert assignment_start(
                    code, assign_angles(code, *letters)) == pair

    def test_same_seed_same_orbit(self):
        tri = Triangle(30, 60)
        code = CodeSequence([1, 2, 1, 2])
        a = find_orbit(tri, code, seed=3)
        b = find_orbit(tri, code, seed=3)
        assert a.start.t == b.start.t and a.start.angle == b.start.angle
        c = find_orbit(tri, code, seed=4)
        assert c is not None and c.residual < 1e-9


class TestReflectionComposition:
    def to_tower_frame(self, tri, start_pair):
        """Scaled frame map sending the seam onto the tower base."""
        corners = {1: (0, 1), 2: (1, 2), 3: (0, 2)}
        s0, s1 = start_pair
        (pivot,) = set(corners[s0]) & set(corners[s1])
        (other,) = set(corners[s0]) - {pivot}
        third = 3 - pivot - other
        verts = tri.vertices()
        px, py = verts[pivot]
        ex, ey = verts[other][0] - px, verts[other][1] - py
        norm = math.hypot(ex, ey)
        ex, ey = ex / norm, ey / norm
        cross = (ex * (verts[third][1] - py)
                 - ey * (verts[third][0] - px))
        flip = 1.0 if cross > 0 else -1.0

        def gofer(p):
            ux, uy = p[0] - px, p[1] - py
            return (2 * (ux * ex + uy * ey),
                    2 * flip * (uy * ex - ux * ey))
        return gofer

    @pytest.mark.parametrize("codes,first,second,x,y", [
        ([1, 1, 1], "X", "Y", 60, 60),
        ([1, 2, 1, 2], "Z", "X", 30, 60),
        ([1, 1, 2, 3, 3, 2], "X", "Y", 41, 67),
    ])
    def test_copies_match_tower_chain(self, codes, first, second, x, y):
        code = CodeSequence(codes)
        asg = assign_angles(code, first, second)
        pair = assignment_start(code, asg)
        tri = Triangle(x, y)
        tower = unfold(code, asg, x, y, precision=9)
        # odd codes double inside the tower; unfold the doubled pattern
        target = code_to_side(tower.sym.code, pair).symbols
        copies = unfold_by_reflection(tri, target[1:])
        frame = self.to_tower_frame(tri, pair)
        tower_tris = list(tower.sym.triangles())
        assert len(copies) == len(tower_tris)
        for copy, tri_pts in zip(copies, tower_tris):
            mirrored = [frame(p) for p in copy]
            for point in tri_pts:
                gx, gy = tower.locate(point)
                g = (float(gx.lo + gx.hi) / 2, float(gy.lo + gy.hi) / 2)
                assert any(math.dist(g, m) < 1e-6 for m in mirrored)


class TestBandAgreement:
    def test_orbit_exists_iff_band_test_passes(self):
        rng = random.Random(23)
        entries = rng.sample(load_default_corpus(), 10)
        checked = 0
        for entry in entries:
            if entry.code.total() % 2:
                continue  # keep runtimes tame: traced period doubles
            asg = all_assignments(entry.code)[0]
            poly = angle_bounding_polygon(entry.code, asg)
            if len(poly.vertices) < 3:
                continue
            cx = sum(Fraction(v[0]) for v in poly.vertices) / len(poly.vertices)
            cy = sum(Fraction(v[1]) for v in poly.vertices) / len(poly.vertices)
            tower = unfold(entry.code, asg, cx, cy)
            verdict = band_test(tower)
            if verdict.status == "indeterminate":
                continue
            pair = assignment_start(entry.code, asg)
            got = find_orbit(Triangle(cx, cy), entry.code, starts=[pair])
            assert (got is not None) == verdict.passed
            checked += 1
        assert checked >= 3

    # passing bands about 1.0e-4, 3.0e-4 and 2.2e-5 of a side wide: too
    # thin for any fixed start grid of a few thousand points to hit
    @pytest.mark.parametrize("index,x,y", [
        (56, Fraction(1305467, 12852), Fraction(34963, 612)),
        (42, Fraction(202815, 1969), Fraction(128745, 1969)),
        (112, Fraction(16249218, 155701), Fraction(9868974, 155701)),
    ])
    def test_narrow_band_is_found(self, index, x, y):
        code = load_default_corpus()[index].code
        asg = all_assignments(code)[0]
        assert pruned_band_test(unfold(code, asg, x, y, precision=7)).passed
        got = find_orbit(Triangle(x, y), code,
                         starts=[assignment_start(code, asg)])
        assert got is not None and got.residual < 1e-9
