"""Mirror-image towers and the straightened-path tests.

A closed code unfolds into a chain of reflected triangle copies.  The chain
vertices come in two colors, and a candidate shooting direction works
exactly when every blue-to-black vector turns the same way against it.  The
three tests below check that sign condition over all vertices, over the
per-fan key points only, and over the key points clamped between the two
special perpendicular sides.

Coordinates are built once per (code, assignment) as trig polynomials,
doubled so all coefficients are integers, and only evaluated to intervals
at a concrete (x, y).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .classify import palindromic_pivots, solve_theta
from .numeric import (
    MIN_PRECISION,
    AffineForm,
    Interval,
    TrigPoly,
    simplify,
)
from .sequences import (
    AngleAssignment,
    CodeSequence,
    assign_angles,
    symbol_degrees,
    symbol_value,
    third_symbol,
)


class PrecisionError(ArithmeticError):
    """An enclosure is too wide to decide; retry with more digits."""


class FanAngleError(ValueError):
    """Some fan opens to 180 degrees or more; key-point tests don't apply."""


class ShapeError(ValueError):
    """The code has no palindromic pivots."""


BLUE = "blue"
BLACK = "black"


def _sin_atom(letter: str):
    form = symbol_value(letter)
    return ("sin", int(form.ax), int(form.ay), int(form.c))


def _angle_atom(kind: str, form):
    return (kind, int(form.ax), int(form.ay), int(form.c))


class TowerPoint:
    """One unfolded vertex: doubled coordinates, color, L-label."""

    __slots__ = ("px", "py", "color", "label")

    def __init__(self, px: TrigPoly, py: TrigPoly, color: str, label):
        self.px = px
        self.py = py
        self.color = color
        self.label = label

    @property
    def family(self):
        """Chain points alternate B0, A0, B1, A1, ...; arc interiors are C."""
        m, j = self.label
        if j != 0:
            return ("C", j)
        return ("B", (m - 1) // 2) if m % 2 else ("A", (m - 2) // 2)

    def __repr__(self):
        m, j = self.label
        return f"L({m},{j})[{self.color}]"


class Fan:
    """All triangles around one chain vertex."""

    __slots__ = ("index", "count", "letter", "center", "arc")

    def __init__(self, index, count, letter, center, arc):
        self.index = index      # 1-based code position
        self.count = count      # code number = triangles in the fan
        self.letter = letter    # angle symbol at the center
        self.center = center
        self.arc = arc          # count+1 points, ends shared with neighbors

    def key_points(self):
        """First and last point on each of the two arc radii (<= 4)."""
        c = self.count
        return [self.arc[j] for j in sorted({0, 1, c - 1, c}) if 0 <= j <= c]

    def central_degrees(self, x, y) -> Fraction:
        return self.count * symbol_degrees(self.letter, x, y)


class SymbolicTower:
    """Tower geometry of one code and assignment, independent of (x, y).

    Immutable once built; safe to share between threads and cached per
    (code numbers, seed letters).
    """

    def __init__(self, code: CodeSequence, asg: AngleAssignment = None, *,
                 letters=None, before: str = None):
        self.raw = letters is not None
        self.original_code = code
        if self.raw:
            self.theta = None
            self.pivots = []
            self._letters = list(letters)
            self._before = before
        else:
            self.theta = solve_theta(code, asg)
            if len(code.codes) % 2:
                # odd codes traverse the path twice to close the picture
                code = CodeSequence(code.codes * 2)
                asg = assign_angles(code, asg.symbol(1), asg.symbol(2))
            self.pivots = palindromic_pivots(code)
            n = len(code.codes)
            self._letters = [asg.symbol(i) for i in range(1, n + 1)]
            self._before = None
        self.code = code
        self.asg = asg
        self._scores: dict = {}
        self._score_base: dict = {}
        self._build()
        self._shoot()

    def _letter(self, i: int) -> str:
        """U_i for i in 0..n+1; raw chains extend by the parity rule."""
        n = len(self._letters)
        if not self.raw:
            return self._letters[(i - 1) % n]
        if i == 0:
            return self._before
        if i <= n:
            return self._letters[i - 1]
        prev2 = self._letter(n - 1)
        if self.code.codes[n - 1] % 2 == 0:
            return prev2
        return third_symbol(prev2, self._letters[n - 1])

    # -- construction --------------------------------------------------

    def _build(self):
        codes = self.code.codes
        n = len(codes)
        letter = self._letter

        values = {i: symbol_value(letter(i)) for i in range(0, n + 2)}
        # T_m: alternating partial sums of the fan openings
        t_forms = [AffineForm()]
        for m in range(1, n + 2):
            a_m = values[m] * codes[(m - 1) % n]
            t_forms.append(a_m - t_forms[m - 1])

        centers = []
        px_products = [(1, [_sin_atom(third_symbol(letter(0), letter(1)))])]
        py_products = []
        centers.append(self._point(px_products, py_products, 1))
        for m in range(1, n + 2):
            u_atom = _sin_atom(third_symbol(letter(m - 1), letter(m)))
            t_prev = t_forms[m - 1]
            sign = 1 if m % 2 == 0 else -1
            px_products = px_products + \
                [(sign, [u_atom, _angle_atom("cos", t_prev)])]
            py_products = py_products + \
                [(1, [u_atom, _angle_atom("sin", t_prev)])]
            centers.append(self._point(px_products, py_products, m + 1))
            self._score_base[id(centers[-1])] = centers[-2]
        self.centers = centers  # L_1 .. L_{n+2}

        fans = []
        for i in range(1, n + 1):
            m = i + 1
            count = codes[i - 1]
            v = values[i]
            prev = letter(i - 1)
            radius_even = _sin_atom(third_symbol(letter(i), prev))
            radius_odd = _sin_atom(prev)
            if m % 2 == 0:
                delta, sigma = -t_forms[m - 2], 1
            else:
                delta, sigma = AffineForm.const(180) + t_forms[m - 2], -1
            center = centers[m - 1]
            arc = [centers[i - 1]]
            for j in range(1, count):
                ang = delta + v * (sigma * j)
                radius = radius_even if j % 2 == 0 else radius_odd
                px = [(1, [radius, _angle_atom("cos", ang)])]
                py = [(1, [radius, _angle_atom("sin", ang)])]
                color = BLACK if m % 2 == 0 else BLUE
                arc.append(TowerPoint(
                    center.px + simplify(px), center.py + simplify(py),
                    color, (m, j)))
                self._score_base[id(arc[-1])] = center
            arc.append(centers[i + 1])
            fans.append(Fan(i, count, letter(i), center, arc))
        self.fans = fans

        self.points = list(centers)
        for fan in fans:
            self.points.extend(p for p in fan.arc if p.label[1] != 0)
        self.base = (centers[1], centers[0])        # A0, B0
        self.top = (centers[n + 1], centers[n])     # A_last, B_last

    def _point(self, px_products, py_products, m):
        color = BLUE if m % 2 == 0 else BLACK
        return TowerPoint(simplify(px_products), simplify(py_products),
                          color, (m, 0))

    def _shoot(self):
        if self.theta is not None:
            self.shooting = (TrigPoly.atom_of("cos", self.theta, -1),
                             TrigPoly.atom_of("sin", self.theta))
            self.shooting_kind = "angle"
        else:
            a0, top = self.centers[1], self.centers[-1]
            self.shooting = (top.px - a0.px, top.py - a0.py)
            self.shooting_kind = "chain"
        # the band repeats only if both end displacements run along the
        # shooting direction; stable codes satisfy this identically and
        # the polynomials below collapse to zero
        c, d = self.shooting
        a0, b0 = self.centers[1], self.centers[0]
        an, bm = self.centers[-1], self.centers[-2]
        self.closure = ((an.px - a0.px) * d - (an.py - a0.py) * c,
                        (bm.px - b0.px) * d - (bm.py - b0.py) * c)

    # -- derived symbolic data -----------------------------------------

    def score_poly(self, point: TowerPoint) -> TrigPoly:
        """Turning score d*px - c*py against the shooting vector (c, d).

        Neighboring chain points differ by one or two product terms, so
        scores are built as deltas off a base point's score; long codes
        would otherwise pay a full product per point.
        """
        chain = []
        while True:
            got = self._scores.get(id(point))
            if got is not None:
                break
            chain.append(point)
            point = self._score_base.get(id(point))
            if point is None:
                got = None
                break
        c, d = self.shooting
        for p in reversed(chain):
            if got is None:
                got = d * p.px - c * p.py
            else:
                base = self._score_base[id(p)]
                got = got + d * (p.px - base.px) - c * (p.py - base.py)
            self._scores[id(p)] = got
        return got

    def special_perpendiculars(self):
        """The two pivot-fan sides crossed at a right angle, as
        (center, arc middle) pairs."""
        if not self.pivots:
            raise ShapeError(f"{self.code} has no palindromic shape")
        sides = []
        for p in self.pivots:
            fan = self.fans[p - 1]
            sides.append((fan.center, fan.arc[fan.count // 2]))
        return sides

    def triangles(self):
        """Vertex triples of the reflected copies, in chain order."""
        for fan in self.fans:
            for j in range(fan.count):
                yield (fan.center, fan.arc[j], fan.arc[j + 1])

    def at(self, x, y, precision: int = MIN_PRECISION) -> "Tower":
        return Tower(self, x, y, precision)


@lru_cache(maxsize=256)
def _symbolic_tower(codes: tuple, first: str, second: str) -> SymbolicTower:
    code = CodeSequence(codes)
    return SymbolicTower(code, assign_angles(code, first, second))


def symbolic_tower(code: CodeSequence, asg: AngleAssignment) -> SymbolicTower:
    return _symbolic_tower(tuple(code.codes), asg.symbol(1), asg.symbol(2))


class Tower:
    """A symbolic tower evaluated at one concrete triangle."""

    def __init__(self, sym: SymbolicTower, x, y, precision: int):
        x, y = Fraction(x), Fraction(y)
        if not (0 < x and 0 < y and x + y < 180):
            raise ValueError(f"degenerate triangle ({x}, {y})")
        self.sym = sym
        self.x = x
        self.y = y
        self.precision = precision
        self._cache: dict = {}
        self._located: dict = {}
        self._w = None

    @property
    def code(self) -> CodeSequence:
        return self.sym.code

    @property
    def triangle(self) -> "Triangle":
        return Triangle(self.x, self.y)

    def locate(self, point: TowerPoint):
        """Interval coordinate pair of a tower point."""
        got = self._located.get(id(point))
        if got is None:
            got = (point.px.eval(self.x, self.y, self.precision, self._cache),
                   point.py.eval(self.x, self.y, self.precision, self._cache))
            self._located[id(point)] = got
        return got

    def shooting_vector(self):
        """Interval components (c, d); raises when both enclose zero."""
        if self._w is None:
            c, d = self.sym.shooting
            civ = c.eval(self.x, self.y, self.precision, self._cache)
            div = d.eval(self.x, self.y, self.precision, self._cache)
            if 0 in civ and 0 in div:
                raise PrecisionError("shooting vector encloses (0, 0)")
            self._w = (civ, div)
        return self._w

    def score(self, point: TowerPoint) -> Interval:
        civ, div = self.shooting_vector()
        pxv, pyv = self.locate(point)
        return div * pxv - civ * pyv

    def fan_angles_below_180(self) -> bool:
        return all(f.central_degrees(self.x, self.y) < 180
                   for f in self.sym.fans)

    def top_parallel_base(self) -> bool:
        """Does the top side run along the base direction?"""
        (_, ay) = self.locate(self.sym.top[0])
        (_, by) = self.locate(self.sym.top[1])
        # the base sits on the x axis, so parallel means zero y spread
        return 0 in (by - ay)

    def band_refuted(self) -> bool:
        """True when some end displacement certainly leaves the shooting
        direction, so no periodic band exists at this triangle."""
        for poly in self.sym.closure:
            if poly.is_zero():
                continue
            if 0 not in poly.eval(self.x, self.y, self.precision,
                                  self._cache):
                return True
        return False


class Verdict:
    """Outcome of one separation test."""

    __slots__ = ("status", "margin", "blue_count", "black_count")

    def __init__(self, status: str, margin, blue_count: int, black_count: int):
        self.status = status
        self.margin = margin
        self.blue_count = blue_count
        self.black_count = black_count

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def __repr__(self):
        return f"Verdict({self.status}, margin={self.margin}, " \
               f"{self.blue_count}x{self.black_count})"


def _judge(tower: Tower, points) -> Verdict:
    """Common turning-sign check: every blue score below every black one.

    A definite closure violation fails first: with the band broken the
    sign condition is vacuous.
    """
    if tower.band_refuted():
        return Verdict("fail", None, 0, 0)
    blue_hi = blue_lo = black_hi = black_lo = None
    blues = blacks = 0
    for p in points:
        s = tower.score(p)
        if p.color == BLUE:
            blue_hi = s.hi if blue_hi is None else max(blue_hi, s.hi)
            blue_lo = s.lo if blue_lo is None else max(blue_lo, s.lo)
            blues += 1
        else:
            black_hi = s.hi if black_hi is None else min(black_hi, s.hi)
            black_lo = s.lo if black_lo is None else min(black_lo, s.lo)
            blacks += 1
    if not blues or not blacks:
        raise ValueError("need both colors to compare")
    margin = black_lo - blue_hi
    if margin > 0:
        return Verdict("pass", margin, blues, blacks)
    if black_hi <= blue_lo:
        return Verdict("fail", margin, blues, blacks)
    return Verdict("indeterminate", margin, blues, blacks)


def test_I(tower: Tower) -> Verdict:
    """Sign test over every vertex of the unfolded chain."""
    return _judge(tower, tower.sym.points)


def _parallel_pruned(sym: SymbolicTower, points):
    """Keep one representative of each group whose displacement is exactly
    parallel to the shooting vector; such points score identically."""
    groups = {}
    out = []
    for p in points:
        key = (p.color,
               tuple(sorted(sym.score_poly(p).terms.items())))
        if key in groups:
            continue
        groups[key] = p
        out.append(p)
    return out


def key_points(sym: SymbolicTower):
    """Per-fan extremal arc points, plus the base corner, minus the two
    topmost points whose scores repeat the base corners'."""
    top_labels = {sym.top[0].label, sym.top[1].label}
    seen = set()
    out = []
    for p in [sym.centers[0]] + \
            [k for fan in sym.fans for k in fan.key_points()]:
        if p.label in top_labels or p.label in seen:
            continue
        seen.add(p.label)
        out.append(p)
    return out


def pruned_key_points(sym: SymbolicTower):
    """Key points with the exactly-parallel duplicates removed."""
    return _parallel_pruned(sym, key_points(sym))


def test_II(tower: Tower) -> Verdict:
    """Sign test over key points only; needs every fan under 180 degrees."""
    if not tower.fan_angles_below_180():
        raise FanAngleError("a fan opens to 180 degrees or more")
    return _judge(tower, pruned_key_points(tower.sym))


def test_III(tower: Tower) -> Verdict:
    """Key points clamped between the two special perpendicular sides."""
    sym = tower.sym
    sides = sym.special_perpendiculars()  # raises ShapeError without shape
    if not tower.fan_angles_below_180():
        raise FanAngleError("a fan opens to 180 degrees or more")
    civ, div = tower.shooting_vector()

    def offset(point):
        pxv, pyv = tower.locate(point)
        return civ * pxv + div * pyv

    rails = [offset(center) for center, _ in sides]
    lo = min(r.lo for r in rails)
    hi = max(r.hi for r in rails)
    chosen = []
    for p in _parallel_pruned(sym, key_points(sym)):
        o = offset(p)
        if o.hi < lo or o.lo > hi:
            continue  # certainly outside the rails
        chosen.append(p)
    return _judge(tower, chosen)


def unfold(code: CodeSequence, asg: AngleAssignment, tri, y=None,
           precision: int = MIN_PRECISION) -> Tower:
    """Evaluate the tower of a legal code at a concrete triangle.

    ``tri`` is a Triangle, or the x angle with ``y`` passed separately.
    """
    if y is not None:
        tri = Triangle(tri, y)
    return symbolic_tower(code, asg).at(tri.x, tri.y, precision)


def unfold_raw(codes, letters, before: str, x, y,
               precision: int = MIN_PRECISION) -> Tower:
    """Tower for explicit code numbers and per-position letters, skipping
    the closed-path legality checks.  ``before`` is the letter that would
    precede position one.  Meant for open partial chains."""
    code = CodeSequence(tuple(codes))
    sym = SymbolicTower(code, letters=list(letters), before=before)
    return sym.at(x, y, precision)


class Triangle:
    """A triangle pinned down by its first two angles, in degrees.

    Angle x sits at the first corner (the origin), y at the second, and
    the first side runs along the positive axis.  Side labels follow the
    opposite angles: 1 joins the first two corners (length sin(x+y)), 2
    the second and third (sin x), 3 the first and third (sin y).
    """

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        x, y = Fraction(x), Fraction(y)
        if not (0 < x and 0 < y and x + y < 180):
            raise ValueError(f"degenerate triangle ({x}, {y})")
        self.x = x
        self.y = y

    @property
    def z(self) -> Fraction:
        return 180 - self.x - self.y

    def vertices(self):
        """Float corner coordinates (first, second, third)."""
        xr = math.radians(float(self.x))
        yr = math.radians(float(self.y))
        return ((0.0, 0.0),
                (math.sin(xr + yr), 0.0),
                (math.sin(yr) * math.cos(xr), math.sin(yr) * math.sin(xr)))

    def side(self, label: int):
        """Endpoint pair of a labeled side."""
        a, b, c = self.vertices()
        return {1: (a, b), 2: (b, c), 3: (a, c)}[label]

    def diameter(self) -> float:
        a, b, c = self.vertices()
        return max(math.dist(a, b), math.dist(b, c), math.dist(a, c))

    def __repr__(self):
        return f"Triangle({self.x}, {self.y})"


# -- convex hull cross-check ------------------------------------------


def _float_hull(pts):
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and \
                    ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1]) -
                     (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out
    lower = build(pts)
    upper = build(reversed(pts))
    return lower[:-1] + upper[:-1]


def convex_hull_separation(tower: Tower) -> Verdict:
    """Do the blue and black hulls stay apart?

    Candidate separating directions come from float hulls and are certified
    with intervals over all points; overlap is certified by a strictly
    inside point or a proper edge crossing.  Anything else is
    indeterminate.
    """
    blue = [p for p in tower.sym.points if p.color == BLUE]
    black = [p for p in tower.sym.points if p.color == BLACK]
    coords = {id(p): tower.locate(p) for p in blue + black}

    def midpt(p):
        xiv, yiv = coords[id(p)]
        return (float(xiv.lo + xiv.hi) / 2, float(yiv.lo + yiv.hi) / 2)

    by_mid = {}
    for p in blue + black:
        by_mid.setdefault((p.color, midpt(p)), p)
    hull_pts = {
        color: [by_mid[(color, v)]
                for v in _float_hull([midpt(p) for p in group])]
        for color, group in ((BLUE, blue), (BLACK, black))}

    def dot_iv(nx, ny, p):
        xiv, yiv = coords[id(p)]
        return Interval.exact(nx) * xiv + Interval.exact(ny) * yiv

    # separating axis: some hull edge normal parts the two colors
    axes = []
    for hull in hull_pts.values():
        for i in range(len(hull)):
            a = midpt(hull[i])
            b = midpt(hull[(i + 1) % len(hull)])
            ex, ey = b[0] - a[0], b[1] - a[1]
            if ex or ey:
                axes.append((Fraction(-ey).limit_denominator(10 ** 9),
                             Fraction(ex).limit_denominator(10 ** 9)))
    total = (len(blue), len(black))
    for nx, ny in axes:
        b_vals = [dot_iv(nx, ny, p) for p in blue]
        k_vals = [dot_iv(nx, ny, p) for p in black]
        if max(v.hi for v in b_vals) < min(v.lo for v in k_vals) or \
                max(v.hi for v in k_vals) < min(v.lo for v in b_vals):
            return Verdict("pass", None, *total)

    def orient(p, q, r):
        (px_, py_) = coords[id(p)]
        (qx_, qy_) = coords[id(q)]
        (rx_, ry_) = coords[id(r)]
        return (qx_ - px_) * (ry_ - py_) - (qy_ - py_) * (rx_ - px_)

    def strictly_inside(p, hull):
        if len(hull) < 3:
            return False
        return all(orient(hull[i], hull[(i + 1) % len(hull)], p).lo > 0
                   for i in range(len(hull)))

    for p in blue:
        if strictly_inside(p, hull_pts[BLACK]):
            return Verdict("fail", None, *total)
    for p in black:
        if strictly_inside(p, hull_pts[BLUE]):
            return Verdict("fail", None, *total)

    # proper crossing of one hull edge with one of the other color
    def split(o1, o2):
        return (o1.hi < 0 < o2.lo) or (o2.hi < 0 < o1.lo)

    bh, kh = hull_pts[BLUE], hull_pts[BLACK]
    for i in range(len(bh)):
        a, b = bh[i], bh[(i + 1) % len(bh)]
        for j in range(len(kh)):
            c, d = kh[j], kh[(j + 1) % len(kh)]
            if split(orient(a, b, c), orient(a, b, d)) and \
                    split(orient(c, d, a), orient(c, d, b)):
                return Verdict("fail", None, *total)
    return Verdict("indeterminate", None, *total)

