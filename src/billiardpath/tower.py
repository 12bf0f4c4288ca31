"""Mirror-image towers and the straightened-path tests.

A closed code unfolds into a chain of reflected triangle copies.  The chain
vertices come in two colors, and a candidate shooting direction works
exactly when every blue-to-black vector turns the same way against it.  The
three tests below check that sign condition over all vertices, over the
per-fan key points only, and over the key points clamped between the two
special perpendicular sides.

Coordinates are trig polynomials in (x, y), doubled so all coefficients
are integers, and only evaluated to intervals at a concrete (x, y).  The
build of one (code, assignment) is linear in the code's length: each point
but the first center is a step off a base point, the previous center or
its fan's center, and a step is one product of two atoms
(``numeric.atom_product``).  A point's coordinates are summed along its
steps on first read, so only the points a test reads are expanded, and a
turning score is its base point's score plus the product of that one step
with the shooting vector.  The end displacements A_last - A0 and B_last -
B0 are sums of steps; where they are equal, as on every stable code, the
second closure polynomial is the first.  Angles are the integer triples
(ax, ay, q) of ``SYMBOL_FORMS``, for ax*x + ay*y + q*90 degrees, and the
fan check compares the widest fan of each letter with 180 degrees on the
triangle's homogeneous integers.  ``Tower.score`` forms d*px - c*py as
integer ends from those that ``TrigPoly.bounds`` gives, and the tests
decide on them by ``separation``, as ``prover.certify_square`` does.

The key-point test drops a key point whose score equals a kept one's of
its color.  ``pruned_key_points`` finds those without expanding scores: a
double probe of every score at one generic triangle, along the same
steps, keeps every point that is farther than a proven slack from the
kept ones, and only near pairs are compared as polynomials.  Floats only
ever keep a point.  Where the integer ends leave a test indeterminate,
``_proven_tie`` looks for a black and a blue score that agree identically
on a line through the triangle, decided exactly in Z[zeta_16]; such a tie
is a "fail" with margin 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .classify import angle_bounding_polygon, palindromic_pivots, solve_theta
from .geometry import to_homogeneous
from .numeric import (MIN_PRECISION, Interval, TrigPoly, atom_angle,
                      atom_product, simplify)
from .sequences import (
    SYMBOL_FORMS,
    AngleAssignment,
    CodeSequence,
    assign_angles,
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


def separation(pairs):
    """The least black and the greatest blue value of (is_black, value)
    pairs: black outscores blue exactly where the first exceeds the
    second.  The band test and the square certificate both decide by it.
    Raises ``ValueError`` when a color is missing."""
    black = blue = None
    for is_black, v in pairs:
        if is_black:
            if black is None or v < black:
                black = v
        elif blue is None or v > blue:
            blue = v
    if black is None or blue is None:
        raise ValueError("need both colors to compare")
    return black, blue


def _sin_atom(letter: str):
    return ("sin",) + SYMBOL_FORMS[letter]


class TowerPoint:
    """One unfolded vertex: doubled coordinates, color, L-label.

    Every point but the first chain center has a ``step`` (base point,
    dpx, dpy): its coordinates are the base's plus (dpx, dpy).  ``px`` and
    ``py`` are expanded along the steps on first read, and kept on every
    point passed; building a tower expands none.
    """

    __slots__ = ("_px", "_py", "step", "color", "label")

    def __init__(self, color: str, label, step=None, px=None, py=None):
        self.step = step
        self._px = px
        self._py = py
        self.color = color
        self.label = label

    def _expand(self):
        chain, p = [], self
        while p._px is None:
            chain.append(p)
            p = p.step[0]
        for p in reversed(chain):
            base, dpx, dpy = p.step
            p._px = base._px + dpx
            p._py = base._py + dpy

    @property
    def px(self) -> TrigPoly:
        if self._px is None:
            self._expand()
        return self._px

    @property
    def py(self) -> TrigPoly:
        if self._py is None:
            self._expand()
        return self._py

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


class SymbolicTower:
    """Tower geometry of one code and assignment, independent of (x, y).

    Immutable once built, apart from the coordinates its points expand on
    first read and the memos of turning scores and of the pruned key
    points, and cached per (code numbers, seed letters).
    """

    def __init__(self, code: CodeSequence, asg: AngleAssignment):
        self.theta = solve_theta(code, asg)
        self.plan = (code, asg)  # as given, before an odd code is doubled
        if len(code.codes) % 2:
            # odd codes traverse the path twice to close the picture
            code = CodeSequence(code.codes * 2)
            asg = assign_angles(code, asg.symbol(1), asg.symbol(2))
        self.pivots = palindromic_pivots(code)
        self._letters = [asg.symbol(i) for i in range(1, len(code.codes) + 1)]
        self.code = code
        self.asg = asg
        self._scores: dict = {}
        self._pruned = None
        self._build()
        self._shoot()

    def _letter(self, i: int) -> str:
        """U_i for i in 0..n+1, read cyclically."""
        return self._letters[(i - 1) % len(self._letters)]

    # -- construction --------------------------------------------------

    def _build(self):
        codes = self.code.codes
        n = len(codes)
        letter = self._letter

        values = [SYMBOL_FORMS[letter(i)] for i in range(0, n + 2)]
        # T_m: alternating partial sums of the fan openings
        t_forms = [(0, 0, 0)]
        for m in range(1, n + 2):
            (vx, vy, vq), k = values[m], codes[(m - 1) % n]
            tx, ty, tq = t_forms[m - 1]
            t_forms.append((k * vx - tx, k * vy - ty, k * vq - tq))

        # each center is the previous one plus one step, a product of two
        # atoms, so a code of length n builds O(n) steps of O(1) terms
        centers = [TowerPoint(BLACK, (1, 0), px=simplify(
            [(1, [_sin_atom(third_symbol(letter(0), letter(1)))])]),
            py=TrigPoly())]
        for m in range(1, n + 2):
            u_atom = _sin_atom(third_symbol(letter(m - 1), letter(m)))
            t_prev = t_forms[m - 1]
            sign = 1 if m % 2 == 0 else -1
            step = (centers[-1], atom_product(sign, u_atom, ("cos",) + t_prev),
                    atom_product(1, u_atom, ("sin",) + t_prev))
            centers.append(TowerPoint(BLUE if m % 2 else BLACK, (m + 1, 0),
                                      step))
        self.centers = centers  # L_1 .. L_{n+2}

        fans = []
        for i in range(1, n + 1):
            m = i + 1
            count = codes[i - 1]
            vx, vy, vq = values[i]
            prev = letter(i - 1)
            radius_even = _sin_atom(third_symbol(letter(i), prev))
            radius_odd = _sin_atom(prev)
            tx, ty, tq = t_forms[m - 2]
            if m % 2 == 0:
                dx, dy, dq, sigma = -tx, -ty, -tq, 1
            else:
                dx, dy, dq, sigma = tx, ty, tq + 2, -1
            center = centers[m - 1]
            color = BLACK if m % 2 == 0 else BLUE
            arc = [centers[i - 1]]
            for j in range(1, count):
                k = sigma * j
                ang = (dx + k * vx, dy + k * vy, dq + k * vq)
                radius = radius_even if j % 2 == 0 else radius_odd
                arc.append(TowerPoint(color, (m, j), (
                    center, atom_product(1, radius, ("cos",) + ang),
                    atom_product(1, radius, ("sin",) + ang))))
            arc.append(centers[i + 1])
            fans.append(Fan(i, count, letter(i), center, arc))
        self.fans = fans
        # (n, form) of the largest fan of each letter: the widest openings
        widest: dict = {}
        for fan in fans:
            widest[fan.letter] = max(widest.get(fan.letter, 0), fan.count)
        self.widest_fans = tuple((k, SYMBOL_FORMS[s])
                                 for s, k in sorted(widest.items()))

        self.points = list(centers)
        for fan in fans:
            self.points.extend(p for p in fan.arc if p.label[1] != 0)
        self.base = (centers[1], centers[0])        # A0, B0
        self.top = (centers[n + 1], centers[n])     # A_last, B_last

    def _shoot(self):
        # the end displacements A_last - A0 and B_last - B0, each the sum
        # of the steps between, so no center is expanded
        steps = [p.step for p in self.centers[1:]]
        a_end, b_end = ((TrigPoly.total(s[1] for s in run),
                         TrigPoly.total(s[2] for s in run))
                        for run in (steps[1:], steps[:-1]))
        if self.theta is not None:
            self.shooting = (TrigPoly.atom("cos", *self.theta, -1),
                             TrigPoly.atom("sin", *self.theta))
            self.shooting_kind = "angle"
        else:
            self.shooting = a_end
            self.shooting_kind = "chain"
        # the band repeats only if both end displacements run along the
        # shooting direction; stable codes satisfy this identically and
        # the polynomials below collapse to zero.  A chain's shooting
        # vector is the A displacement itself, so its first one is zero
        # by construction; where the B displacement equals the A one (on
        # every stable code) the second is the first
        c, d = self.shooting
        first = TrigPoly() if self.shooting_kind == "chain" else \
            a_end[0] * d - a_end[1] * c
        second = first if b_end == a_end else b_end[0] * d - b_end[1] * c
        self.closure = (first, second)

    # -- derived symbolic data -----------------------------------------

    def score_poly(self, point: TowerPoint) -> TrigPoly:
        """Turning score d*px - c*py against the shooting vector (c, d).

        Every point but the first center is its base point plus one step,
        so scores are built as deltas off the base's score; long codes
        would otherwise pay a full product per point.
        """
        chain = []
        got = self._scores.get(id(point))
        while got is None:
            chain.append(point)
            if point.step is None:
                break
            point = point.step[0]
            got = self._scores.get(id(point))
        c, d = self.shooting
        for p in reversed(chain):
            if got is None:
                got = d * p.px - c * p.py
            else:
                _, dpx, dpy = p.step
                got = got + d * dpx - c * dpy
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
        self._hom = to_homogeneous((x, y))
        self._cache: dict = {}
        self._located: dict = {}
        self._w = None

    @property
    def code(self) -> CodeSequence:
        return self.sym.code

    def locate(self, point: TowerPoint):
        """Interval coordinate pair of a tower point."""
        got = self._located.get(id(point))
        if got is None:
            got = (point.px.eval(self.x, self.y, self.precision, self._cache),
                   point.py.eval(self.x, self.y, self.precision, self._cache))
            self._located[id(point)] = got
        return got

    def _ends(self, poly: TrigPoly):
        """(lo, hi, den): the sum lies in [lo, hi] / (den * 10^precision)."""
        lo, hi = poly.bounds(*self._hom, self.precision, self._cache)
        return lo, hi, poly.den

    def _shooting_ends(self):
        """``_ends`` of (c, d); raises when both enclose zero."""
        if self._w is None:
            c, d = (self._ends(poly) for poly in self.sym.shooting)
            if c[0] <= 0 <= c[1] and d[0] <= 0 <= d[1]:
                raise PrecisionError("shooting vector encloses (0, 0)")
            self._w = (c, d)
        return self._w

    def shooting_vector(self):
        """Interval components (c, d); raises when both enclose zero."""
        s = 10 ** self.precision
        return tuple(Interval(Fraction(lo, den * s), Fraction(hi, den * s))
                     for lo, hi, den in self._shooting_ends())

    def score(self, point: TowerPoint):
        """d*px - c*py as integer ends (lo, hi, den), the score lying in
        [lo, hi] / den, by the interval product rule on the integer ends;
        den is the product of their denominators."""
        (clo, chi, cden), (dlo, dhi, dden) = self._shooting_ends()
        alo, ahi, aden = self._ends(point.px)
        blo, bhi, bden = self._ends(point.py)
        ps = (dlo * alo, dlo * ahi, dhi * alo, dhi * ahi)
        qs = (clo * blo, clo * bhi, chi * blo, chi * bhi)
        da, cb = dden * aden, cden * bden
        return (min(ps) * cb - max(qs) * da, max(ps) * cb - min(qs) * da,
                da * cb * 10 ** (2 * self.precision))

    def fan_angles_below_180(self) -> bool:
        """Every fan opens below 180 degrees: n * (ax*X + ay*Y + 90q*W) <
        180W for the largest fan n of each letter, its angle's triple
        (ax, ay, q) and the triangle's homogeneous (X, Y, W), W > 0."""
        X, Y, W = self._hom
        return all(n * (ax * X + ay * Y + 90 * q * W) < 180 * W
                   for n, (ax, ay, q) in self.sym.widest_fans)

    def band_refuted(self) -> bool:
        """True when some end displacement certainly leaves the shooting
        direction, so no periodic band exists at this triangle."""
        return any(lo > 0 or hi < 0
                   for lo, hi, _ in map(self._ends, self.sym.closure))


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
    scores = [(p.color == BLACK, tower.score(p)) for p in points]
    # every denominator is 2^k * 10^(2 * precision): bring the ends to one
    den = math.lcm(*(d for _, (_, _, d) in scores))
    ends = [(is_black, lo * (den // d), hi * (den // d))
            for is_black, (lo, hi, d) in scores]
    black_lo, blue_hi = separation((b, lo if b else hi) for b, lo, hi in ends)
    blacks = sum(b for b, _, _ in ends)
    counts = (len(ends) - blacks, blacks)
    margin = Fraction(black_lo - blue_hi, den)
    if black_lo > blue_hi:
        return Verdict("pass", margin, *counts)
    black_hi, blue_lo = separation((b, hi if b else lo) for b, lo, hi in ends)
    if black_hi <= blue_lo:
        return Verdict("fail", margin, *counts)
    return Verdict("indeterminate", margin, *counts)


# one sixteenth of a turn, in degrees: phases that are multiples of it
# sum in Z[zeta_16]
_SIXTEENTH = Fraction(45, 2)


def _line_through(p, q):
    """The line a*x + b*y + c = 0 through two points, as primitive
    integers with b > 0, or b = 0 and a > 0."""
    a, b = q[1] - p[1], p[0] - q[0]
    c = -(a * p[0] + b * p[1])
    den = math.lcm(a.denominator, b.denominator, c.denominator)
    a, b, c = (int(v * den) for v in (a, b, c))
    return _primitive(a, b, c)


def _primitive(a: int, b: int, c: int):
    g = math.gcd(a, b, c)
    if b < 0 or (b == 0 and a < 0):
        g = -g
    return a // g, b // g, c // g


def _vanishes_on(poly: TrigPoly, line) -> bool:
    """True when ``poly`` is proven identically zero on the line a*x + b*y
    + c = 0 (``_line_through``'s form); False when it is not, or when some
    phase on the line is not a multiple of 22.5 degrees.

    The line runs through (x0, y0) = (0, -c/b), or (-c/a, 0) when b = 0,
    along (b, -a), so an atom's argument m*x + n*y is f*t + phi with the
    integer frequency f = m*b - n*a and the phase phi = m*x0 + n*y0.  With
    sin(-s) = -sin(s) and cos(-s) = cos(s) every frequency is made
    nonnegative; then c*sin(f*t + phi) is the imaginary part of
    c * e^(i*f*t) * zeta^k, phi = 22.5k degrees and zeta = e^(i*pi/8), and
    a cosine adds 4 to k.  Sines and cosines of distinct frequencies are
    independent, so the restriction vanishes exactly when, per frequency
    f > 0, the sum of c * zeta^k is 0, and for f = 0 its imaginary part
    is.  In Z[zeta] = Z[z]/(z^8 + 1) a sum is 0 when its eight integer
    coefficients are, and its imaginary part when a_j + a_(8-j) = 0 for
    j = 1..7.
    """
    a, b, c = line
    x0, y0 = (Fraction(0), Fraction(-c, b)) if b else (Fraction(-c, a), 0)
    groups: dict = {}
    for (kind, m, n), coeff in poly.coeffs.items():
        f, q = m * b - n * a, (m * x0 + n * y0) / _SIXTEENTH
        if q.denominator != 1:
            return False
        k = int(q)
        if f < 0:
            f, k = -f, -k
            if kind == "sin":
                coeff = -coeff
        if kind == "cos":
            k += 4
        k %= 16
        z = groups.setdefault(f, [0] * 8)
        z[k % 8] += coeff if k < 8 else -coeff
    return all(not any(z) if f else
               not any(z[j] + z[8 - j] for j in range(1, 8))
               for f, z in groups.items())


def _proven_tie(tower: Tower, points) -> bool:
    """True when some black and blue point of ``points`` provably score
    alike at the tower's triangle, so black does not outscore blue there.

    Only a pair whose score enclosures overlap can tie.  Its difference is
    tested for an identity on each line through the triangle that runs
    along a face of the code's bounding polygon or through two of its
    vertices, by ``_vanishes_on``.
    """
    sym, x, y = tower.sym, tower.x, tower.y
    poly = angle_bounding_polygon(*sym.plan)
    lines = {_primitive(*face) for face in poly.faces
             if face[0] * x + face[1] * y + face[2] == 0}
    verts = poly.vertices
    lines.update(_line_through(p, q) for i, p in enumerate(verts)
                 for q in verts[i + 1:]
                 if (q[1] - p[1]) * (x - p[0]) == (q[0] - p[0]) * (y - p[1]))
    if not lines:
        return False
    ends = [(p, tower.score(p)) for p in points]
    blacks = [(p, e) for p, e in ends if p.color == BLACK]
    blues = [(p, e) for p, e in ends if p.color != BLACK]
    for p, (plo, phi, pden) in blacks:
        for q, (qlo, qhi, qden) in blues:
            if plo * qden > qhi * pden or qlo * pden > phi * qden:
                continue  # the enclosures are apart
            diff = sym.score_poly(p) - sym.score_poly(q)
            if any(_vanishes_on(diff, line) for line in lines):
                return True
    return False


def _decide(tower: Tower, points) -> Verdict:
    """``_judge``, with an indeterminate verdict made "fail", margin 0,
    where ``_proven_tie`` finds a tie: a tie is never a pass."""
    v = _judge(tower, points)
    if v.status == "indeterminate" and _proven_tie(tower, points):
        return Verdict("fail", Fraction(0), v.blue_count, v.black_count)
    return v


def test_I(tower: Tower) -> Verdict:
    """Sign test over every vertex of the unfolded chain."""
    return _decide(tower, tower.sym.points)


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


# The probe triangle of ``pruned_key_points``, (X/W, Y/W) degrees: a
# generic point, where distinct scores are rarely close
_PROBE = (52711, 39427, 1000)
_U = 2.0 ** -53
# a true tie's probe gap is at most 3 * (r_p + r_q); see pruned_key_points
_NEAR = 2.0 ** 10


def _probe_poly(poly: TrigPoly):
    """(value, weight, count) of a polynomial at the probe: its double sum,
    sum |c|/den and its term count plus 33 (``pruned_key_points``)."""
    X, Y, W = _PROBE
    f = 0.0
    for atom, c in poly.coeffs.items():
        f += c / poly.den * math.sin(atom_angle(atom, X, Y, W))
    return f, sum(map(abs, poly.coeffs.values())) / poly.den, \
        len(poly.coeffs) + 33


def _probe_point(sym: SymbolicTower, point: TowerPoint, memo: dict):
    """(px, py, weight, count) of a point at the probe, as its base
    point's plus its one step's, walking the steps as ``score_poly``
    does; ``memo`` maps point ids to what it has built."""
    chain = []
    got = memo.get(id(point))
    while got is None:
        chain.append(point)
        if point.step is None:
            break
        point = point.step[0]
        got = memo.get(id(point))
    for p in reversed(chain):
        if got is None:
            dpx, dpy = p.px, p.py
            got = (0.0, 0.0, 0.0, 0)
        else:
            _, dpx, dpy = p.step
        fx, wx, kx = _probe_poly(dpx)
        fy, wy, ky = _probe_poly(dpy)
        got = memo[id(p)] = (got[0] + fx, got[1] + fy, got[2] + wx + wy,
                             got[3] + kx + ky)
    return got


def pruned_key_points(sym: SymbolicTower) -> tuple:
    """Key points minus those whose score equals a kept one's of their
    color (their displacement runs exactly along the shooting vector);
    computed once per tower, so precision escalations skip the work.

    Probe.  Every key point's score is first evaluated in doubles at one
    generic triangle, ``_PROBE``.  A point whose probe value is farther
    than a proven slack from the value of every kept point of its color
    is kept, and its score is never expanded.  Only near pairs are
    compared exactly, by ``score_poly`` equality.  Floats only ever keep:
    every drop rests on an exact equality, so the tuple is the one the
    rule "first point of each (color, score polynomial)" gives.

    Slack.  With u = 2^-53, a polynomial of weight w = sum |c|/den and k
    terms is evaluated within w * (k + 30) * u of its value (the sines as
    in ``prover.certify_square``, through ``numeric.atom_angle``), and
    never exceeds w in size.  A coordinate is its base point's plus one
    step polynomial, so along its chain of steps each double addition
    adds at most u times the weight W of the chain: a point whose px and
    py steps have total weight W and sum K of (k + 33) over both (its
    ``_probe_point``) has each coordinate within u * W * K of the true
    value, and no larger than W.  The same bound holds for the shooting
    vector (c, d) with its own weight and count: one polynomial each for
    an angle shooting, and a chain's difference of two centers (weights
    and counts add, and so cover the subtraction's rounding).  With C the
    larger of the two weights and e_s = u * C * K_s for the larger count,
    the score d*px - c*py is computed within 2 * ((C + e_s) * e + W *
    e_s) + 4u * (C + e_s) * (W + e), e = u * W * K; as K >= 33 and e,
    e_s are tiny beside W and C, that is below 3 * r with r = W * (u * C
    * K + e_s).  Two equal scores thus differ at the probe by at most
    3 * (r_p + r_q), and a pair is near when its gap is at most
    2^10 * (r_p + r_q), a factor 341 to spare for a libm sine hundreds of
    ulps off.  A false near costs one exact comparison.
    """
    if sym._pruned is None:
        memo: dict = {}
        if sym.shooting_kind == "angle":
            (c, wc, kc), (d, wd, kd) = map(_probe_poly, sym.shooting)
            weight, count = max(wc, wd), max(kc, kd)
        else:
            ax, ay, aw, ak = _probe_point(sym, sym.centers[1], memo)
            tx, ty, tw, tk = _probe_point(sym, sym.centers[-1], memo)
            c, d, weight, count = tx - ax, ty - ay, aw + tw, ak + tk
        e_s = _U * weight * count
        kept = []  # (point, probe score, r)
        for p in key_points(sym):
            px, py, w, k = _probe_point(sym, p, memo)
            s, r = d * px - c * py, w * (_U * weight * k + e_s)
            if not any(q.color == p.color and
                       abs(s - t) <= _NEAR * (r + rq) and
                       sym.score_poly(q) == sym.score_poly(p)
                       for q, t, rq in kept):
                kept.append((p, s, r))
        sym._pruned = tuple(p for p, _, _ in kept)
    return sym._pruned


def test_II(tower: Tower) -> Verdict:
    """Sign test over key points only; needs every fan under 180 degrees."""
    if not tower.fan_angles_below_180():
        raise FanAngleError("a fan opens to 180 degrees or more")
    return _decide(tower, pruned_key_points(tower.sym))


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
    for p in pruned_key_points(sym):
        o = offset(p)
        if o.hi < lo or o.lo > hi:
            continue  # certainly outside the rails
        chosen.append(p)
    return _decide(tower, chosen)


def unfold(code: CodeSequence, asg: AngleAssignment, tri, y=None,
           precision: int = MIN_PRECISION) -> Tower:
    """Evaluate the tower of a legal code at a concrete triangle.

    ``tri`` is a Triangle, or the x angle with ``y`` passed separately.
    """
    if y is not None:
        tri = Triangle(tri, y)
    return symbolic_tower(code, asg).at(tri.x, tri.y, precision)


class Triangle:
    """A triangle pinned down by its first two angles, in degrees.

    Angle x sits at the first corner (the origin), y at the second, and
    the first side runs along the positive axis.  Side labels follow the
    opposite angles: 1 joins the first two corners (length sin(x+y)), 2
    the second and third (sin x), 3 the first and third (sin y).
    """

    __slots__ = ("x", "y", "_vertices")

    def __init__(self, x, y):
        x, y = Fraction(x), Fraction(y)
        if not (0 < x and 0 < y and x + y < 180):
            raise ValueError(f"degenerate triangle ({x}, {y})")
        self.x = x
        self.y = y
        xr = math.radians(float(x))
        yr = math.radians(float(y))
        self._vertices = ((0.0, 0.0),
                          (math.sin(xr + yr), 0.0),
                          (math.sin(yr) * math.cos(xr),
                           math.sin(yr) * math.sin(xr)))

    @property
    def z(self) -> Fraction:
        return 180 - self.x - self.y

    def vertices(self):
        """Float corner coordinates (first, second, third)."""
        return self._vertices

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

