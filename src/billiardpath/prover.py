"""Interval-certified covers of the angle plane by verified code regions.

A region system packages, for one code under one letter assignment,
everything needed to certify axis-aligned squares: the convex bounding
polygon, the unstable line when there is one, and the turning scores of the
retained key points compiled to one table of atoms and score rows.
``certify_square`` runs the gradient step on one square, ``cover`` drives
a quadtree over a target polygon until every piece is certified or the
depth budget runs out, ``triple_rule`` closes squares that straddle an
unstable line between two adjacent regions, and
``infinite_pattern`` recognizes the two one-parameter code families that
take over near the thin-triangle corner.

Everything on the certification path is exact: rational centers, integer
coefficients, and enclosures rounded outward on a fixed decimal grid, so a
positive verdict is a proof and a cover file is reproducible bit for bit.
Its inner loops run on integers.  A quadtree square has center (X/W, Y/W)
and half side R/W, a child doubling W, and one rule decides every test on
it: over the closed square, a*x + b*y + c ranges exactly over
(a*X + b*Y + c*W -+ (|a| + |b|) * R) / W (``Square.spread``).  A square lies
in a polygon when the least value is positive on every face, and meets a
box when the greatest is nonnegative on its sides.  It overlaps the convex
target in positive area when the greatest is positive on every target
edge line and box side: by the separating axis theorem, convex polygons
with disjoint interiors are parted by a line along an edge of one of them.
Each row is summed by ``numeric.dot_bounds`` on its atoms' kernel bounds
at the center (X, Y, W), each sweep bump is an integer times r*pi/180,
held as an integer ratio, rounded by one integer division, and every
black-over-blue decision is the band test's ``tower.separation``: on a
band system the only ``Fraction`` built is a pass's margin.

Exact work is done only where it can change the answer.  A float screen
with a proven error slack rejects a square whose center certainly fails
before any exact sum; each system remembers the black and blue rows that
decided its last such failure, and tries that pair alone first, which
settles most failures from a handful of sines.  A retry gate marks an
indeterminate square that no precision could pass, and ``cover`` does not
retry it: its float form, with the same slack, marks most such squares
before any exact sum, and its integer form, after the exact sums, the
rest.  ``cover`` shares one memo of folded kernel values among the
squares of a level.  Floats only ever skip work whose exact verdict is
known ("fail", or "no precision can pass"), so every verdict and record
is what the exact path alone would give.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

from .classify import (angle_bounding_polygon, corner_boxes, is_stable,
                       line_region)
from .geometry import (line_segment_in_halfplanes, polygon_area2,
                       polygon_bbox, segment_midpoint, to_homogeneous)
from .numeric import (MIN_PRECISION, TrigPoly, atom_angle, atom_bounds,
                      dot_bounds, gradient_sum, pi_scaled)
from .sequences import ASSIGNMENT_ORDER, CodeSequence, assign_angles
from .tower import BLACK, pruned_key_points, separation, symbolic_tower

DEFAULT_MAX_DEPTH = 20

# Cover targets usable by name.  The first two are strips between lines of
# constant angle sum; the demo is a small acute patch that the single code
# 1 1 1 covers quickly, so it needs a corpus holding that code (the shipped
# one does not).
PRESETS = {
    "strip-75-80": (
        (Fraction(75, 2), Fraction(75, 2)),
        (Fraction(40), Fraction(40)),
        (Fraction(25, 2), Fraction(135, 2)),
        (Fraction(15, 2), Fraction(135, 2)),
    ),
    "strip-112.3": (
        (Fraction(0), Fraction(677, 10)),
        (Fraction(677, 10), Fraction(0)),
        (Fraction(80), Fraction(0)),
        (Fraction(0), Fraction(80)),
    ),
    "acute-demo": (
        (Fraction(58), Fraction(58)),
        (Fraction(62), Fraction(58)),
        (Fraction(62), Fraction(62)),
        (Fraction(58), Fraction(62)),
    ),
}


class Square:
    """Closed axis-aligned square: center (X/W, Y/W), half side R/W, W > 0.

    Built from rationals, which ``x``, ``y`` and ``r`` read back; a child
    doubles W and keeps R.  ``spread`` decides each of ``cover``'s tests on
    a square, exactly because ``cover`` takes convex targets only.
    """

    __slots__ = ("X", "Y", "R", "W")

    def __init__(self, x, y, r):
        x, y, r = Fraction(x), Fraction(y), Fraction(r)
        if r <= 0:
            raise ValueError("half side must be positive")
        self.W = W = math.lcm(x.denominator, y.denominator, r.denominator)
        self.X, self.Y, self.R = (q.numerator * (W // q.denominator)
                                  for q in (x, y, r))

    @classmethod
    def _of(cls, X, Y, R, W):
        sq = object.__new__(cls)
        sq.X, sq.Y, sq.R, sq.W = X, Y, R, W
        return sq

    x = property(lambda self: Fraction(self.X, self.W))
    y = property(lambda self: Fraction(self.Y, self.W))
    r = property(lambda self: Fraction(self.R, self.W))

    def spread(self, a, b, c):
        """Least and greatest value of a*x + b*y + c over the closed
        square, in units of 1/W: the center value -+ (|a| + |b|) * R."""
        v = a * self.X + b * self.Y + c * self.W
        s = (abs(a) + abs(b)) * self.R
        return v - s, v + s

    def corners(self):
        x, y, r = self.x, self.y, self.r
        return ((x - r, y - r), (x + r, y - r), (x + r, y + r), (x - r, y + r))

    def halfplanes(self):
        x, y, r = self.x, self.y, self.r
        return ((1, 0, r - x), (-1, 0, x + r), (0, 1, r - y), (0, -1, y + r))

    def children(self):
        X, Y, R, W = 2 * self.X, 2 * self.Y, self.R, 2 * self.W
        return tuple(Square._of(X + dx, Y + dy, R, W)
                     for dy in (-R, R) for dx in (-R, R))

    def __eq__(self, other):
        return (isinstance(other, Square) and self.x == other.x
                and self.y == other.y and self.r == other.r)

    def __hash__(self):
        return hash((self.x, self.y, self.r))

    def __repr__(self):
        return f"Square({self.x}, {self.y}, r={self.r})"


class Certificate:
    """Outcome of certifying one square against one region system."""

    __slots__ = ("status", "margin", "note")

    def __init__(self, status: str, margin=None, note: str = ""):
        self.status = status  # "pass" | "fail" | "indeterminate"
        self.margin = margin
        self.note = note

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def __repr__(self):
        tail = f", {self.note}" if self.note else ""
        return f"Certificate({self.status}, margin={self.margin}{tail})"


# A compiled score row and one of its two derivative parts; see
# ``RegionSystem``.
Row = namedtuple("Row", "is_black terms floats weight err g parts")
Part = namedtuple("Part", "terms weight err g2")


class RegionSystem:
    """Square-certification data for one code under one assignment.

    ``kind`` is "band" for stable codes and "line" for unstable ones; a
    line system certifies only the piece of its line inside a square.
    The key-point scores arrive as ``rows`` of (is_black, terms), ``terms``
    being ((kind, m, n), c) pairs with integer ``c`` over one positive
    denominator ``den``, and are compiled once into the table every
    evaluation reads: the sorted distinct ``atoms``, and per score a
    ``Row`` of ``rows``: ``terms`` its (atom index, c) pairs in the given
    order, ``floats`` the same with the doubles c/den, ``weight`` sum
    |c|/den, ``err`` the float-error slack (see ``certify_square``), ``g``
    the gradient sum, and ``parts`` its d/dx and d/dy times 180/pi.  A
    ``Part``'s ``terms`` are (atom index, c*m) (c*n) pairs on the atoms'
    ``partners``, zero products dropped: c*sin(m*x + n*y) differentiates
    to c*m * cos(m*x + n*y), a cosine to -c*m times the sine, and the
    constant cos(0) is its own partner.  ``witness`` is the (black, blue)
    pair of row indices that decided the float screen's last "center
    fails", or None.
    """

    __slots__ = ("code", "asg", "kind", "polygon", "line", "den", "atoms",
                 "partners", "rows", "witness")

    def __init__(self, code, asg, kind, polygon, line, rows, den):
        self.code = code
        self.asg = asg
        self.kind = kind
        self.polygon = polygon
        self.line = line
        self.den = den
        self.atoms = tuple(sorted({key for _, terms in rows
                                   for key, _ in terms}))
        self.partners = tuple(("cos" if k == "sin" else "sin", m, n)
                              if m or n else (k, m, n)
                              for k, m, n in self.atoms)
        index = {key: i for i, key in enumerate(self.atoms)}
        self.rows = tuple(_compile_row(is_black, terms, index, den)
                          for is_black, terms in rows)
        self.witness = None

    @property
    def empty(self) -> bool:
        if self.kind == "line":
            return self.line is None or self.line.segment is None
        return self.polygon.is_empty

    def pair_polys(self):
        """Black-minus-blue score differences, positive where the code
        passes; the symbolic inequality set behind the compiled rows,
        each score rebuilt from its row."""
        blues, blacks = [], []
        for row in self.rows:
            (blacks if row.is_black else blues).append(TrigPoly._of(
                {self.atoms[i]: c for i, c in row.terms}, self.den))
        return [bk - bl for bk in blacks for bl in blues]

    def __repr__(self):
        letters = self.asg.symbol(1) + self.asg.symbol(2)
        return f"RegionSystem({self.code}, {letters}, {self.kind})"


# Float error of one row's double sum per unit of sum |c|/den, per term;
# see ``certify_square`` for the derivation and its safety factor.
_FLOAT_ERR = 2.0 ** -44


def _compile_row(is_black, terms, index, den) -> Row:
    """A ``Row`` of ((kind, m, n), c) terms, kept in their order."""
    k = len(terms) + 64
    parts = []
    for sel in (1, 2):  # m for d/dx, n for d/dy
        dterms = [(key, c * key[sel] if key[0] == "sin" else -c * key[sel])
                  for key, c in terms]
        w = sum(abs(c) for _, c in dterms) / den
        parts.append(Part([(index[key], c) for key, c in dterms if c], w,
                          w * k * _FLOAT_ERR, gradient_sum(dterms)))
    w = sum(abs(c) for _, c in terms) / den
    return Row(is_black, [(index[key], c) for key, c in terms],
               [(index[key], c / den) for key, c in terms], w,
               w * k * _FLOAT_ERR, gradient_sum(terms), tuple(parts))


def region_system(code: CodeSequence, asg=None) -> RegionSystem:
    """Compile a code into its certification system.

    Without an explicit assignment the first one, XY, is taken.  An
    empty polygon (or a line that misses it) leaves ``empty`` set; the
    system is still returned so callers can report why nothing was claimed.
    """
    if asg is None:
        asg = assign_angles(code)
    polygon = angle_bounding_polygon(code, asg)
    if is_stable(code):
        kind, line = "band", None
    else:
        kind, line = "line", line_region(code, asg)
    sym = symbolic_tower(code, asg)
    keys = tuple(pruned_key_points(sym))
    polys = [sym.score_poly(p) for p in keys]
    # the scores' denominators are powers of two; one common multiple
    den = math.lcm(*(sp.den for sp in polys))
    rows = [(p.color == BLACK, [(key, c * (den // sp.den))
                                for key, c in sorted(sp.coeffs.items())])
            for p, sp in zip(keys, polys)]
    sym._scores.clear()
    return RegionSystem(code, asg, kind, polygon, line, rows, den)


def _radians(square: Square, precision: int):
    """The square's half side r times pi/180, from below and above, as
    integer ratios (num, den): the ends of ``numeric.pi_scaled`` on the
    10^-precision grid times R, over 180 * 10^precision * W."""
    lo, hi = pi_scaled(precision)
    den = 180 * 10 ** precision * square.W
    return (lo * square.R, den), (hi * square.R, den)


def _ceil_times(q, k: int) -> int:
    """ceil(k * num / den) for an integer ratio q = (num, den), den > 0."""
    return -((-k * q[0]) // q[1])


def _floor_times(q, k: int) -> int:
    """floor(k * num / den) for an integer ratio q = (num, den), den > 0."""
    return k * q[0] // q[1]


def _center_floats(system: RegionSystem, X: int, Y: int, W: int):
    """Each atom's angle in radians and each row's value, in doubles.

    Angles come from ``atom_angle``, so no float error grows with them; a
    cosine atom carries its 90 degrees in the angle, so the sine of every
    angle is the atom and its cosine the atom's derivative factor.
    """
    angles = [atom_angle(atom, X, Y, W) for atom in system.atoms]
    sines = [math.sin(a) for a in angles]
    values = []
    for row in system.rows:
        f = 0.0
        for i, c in row.floats:
            f += c * sines[i]
        values.append(f)
    return angles, values


def _center_fails(system: RegionSystem, values, precision: int) -> bool:
    """Float screen: True only where the exact center test fails too.

    ``values`` are ``_center_floats``' rows; each is known to within its
    slack (see ``certify_square``) of what its exact bounds enclose.  A
    failing screen keeps its deciding black and blue rows as the system's
    ``witness``.
    """
    grid = 2 / 10 ** precision
    black = blue = None  # (bound, row index)
    for k, (row, f) in enumerate(zip(system.rows, values)):
        slack = row.weight * grid + row.err
        if row.is_black:
            if black is None or f + slack < black[0]:
                black = (f + slack, k)
        elif blue is None or f - slack > blue[0]:
            blue = (f - slack, k)
    if black is None or blue is None or black[0] >= blue[0]:
        return False
    system.witness = (black[1], blue[1])
    return True


def _witness_fails(system: RegionSystem, X: int, Y: int, W: int,
                   precision: int) -> bool:
    """The float screen on the system's witness rows alone, each row's
    double computed as ``_center_floats`` computes it: True only where
    ``_center_fails`` would be True (see ``certify_square``)."""
    if system.witness is None:
        return False
    grid = 2 / 10 ** precision

    def value_and_slack(k):
        row = system.rows[k]
        f = 0.0
        for i, c in row.floats:
            f += c * math.sin(atom_angle(system.atoms[i], X, Y, W))
        return f, row.weight * grid + row.err

    (black, black_slack), (blue, blue_slack) = map(value_and_slack,
                                                   system.witness)
    return black + black_slack < blue - blue_slack


def _floor_float(v: float, k: int) -> int:
    """floor(v * k) for a double v and an integer k, exactly."""
    num, den = v.as_integer_ratio()
    return k * num // den


def _hopeless(system: RegionSystem, angles, values, precision: int,
              rad_lo) -> bool:
    """Float retry gate: True only where the exact path returns
    "indeterminate" with note ``NO_PRECISION_PASSES``; conditions (a) to
    (c) of ``certify_square``.  ``rad_lo`` is ``_radians``' lower ratio."""
    rows = system.rows
    scale = 10 ** precision
    unit = system.den * scale  # the exact bounds count in 1/unit
    grid = 2 / scale
    # (b): the exact center test does not fail
    black, blue = separation(
        (row.is_black, f - row.err if row.is_black else f + row.err)
        for row, f in zip(rows, values))
    if black <= blue:
        return False
    # (a): per row, N * (f + slack) floored for a black row and
    # N * (f - slack) ceiled for a blue one, and the coefficient bump
    ends, bumps = [], []
    for row, f in zip(rows, values):
        slack = row.weight * grid + row.err
        ends.append(_floor_float(f + slack, unit) if row.is_black
                    else -_floor_float(slack - f, unit))
        bumps.append(_floor_times(rad_lo, scale * row.g))

    def reaches():
        return separation((row.is_black, e - b if row.is_black else e + b)
                          for row, e, b in zip(rows, ends, bumps))

    # first with the coefficient bumps, the most L can be: a square that
    # this leaves open may pass, and needs no derivative floats; nor does
    # a row whose reach misses the other color's even so
    black_reach, blue_reach = reaches()
    if black_reach > blue_reach:
        return False
    cosines = [math.cos(a) for a in angles]
    xs = [m * c for (_, m, _), c in zip(system.atoms, cosines)]
    ys = [n * c for (_, _, n), c in zip(system.atoms, cosines)]
    for k, row in enumerate(rows):
        if (ends[k] - bumps[k] > blue_reach if row.is_black
                else ends[k] + bumps[k] < black_reach):
            continue
        # the row's own doubles c/den over all of its terms, times m*cos
        # (n*cos), as the slack's derivation assumes
        fx = fy = 0.0
        for i, c in row.floats:
            fx += c * xs[i]
            fy += c * ys[i]
        dist = 0
        for f, part in zip((fx, fy), row.parts):
            gap = max(abs(f) - (part.weight * grid + part.err), 0.0)
            dist += _floor_float(gap, unit) + _floor_times(rad_lo,
                                                           scale * part.g2)
        bumps[k] = min(bumps[k], _floor_times(rad_lo, dist))
    black_reach, blue_reach = reaches()
    return black_reach <= blue_reach


def _along_segment(segment, points) -> bool:
    """Whether every point's parameter along the segment (q0, q1), its dot
    product with d = q1 - q0 taken from q0, lies in [0, |d|^2]."""
    (x0, y0), (x1, y1) = segment
    dx, dy = x1 - x0, y1 - y0
    dd = dx * dx + dy * dy
    return all(0 <= (px - x0) * dx + (py - y0) * dy <= dd
               for px, py in points)


def _chord_in_square(system: RegionSystem, square: Square):
    """Clip the system's line to the square; None when it misses, or the
    chord pokes past the polygon-clipped segment."""
    chord = line_segment_in_halfplanes(system.line.line, square.halfplanes())
    if chord is None or not _along_segment(system.line.segment, chord):
        return None
    return chord


CENTER_FAILS = "center fails the turning test"
NO_PRECISION_PASSES = "no precision can pass"


def certify_square(system: RegionSystem, square: Square,
                   precision: int = MIN_PRECISION,
                   memo: dict | None = None) -> Certificate:
    """Gradient step on one square: every black key point must outscore
    every blue one across the whole square.

    The scores are evaluated once at the center (the line-segment midpoint
    for a line system) and swept over the square through the gradient
    bound, with the half side converted to radians by the upper bound of
    the pi enclosure.  "fail" is definitive (a corner leaves the polygon,
    the line misses the square, or the center itself fails); otherwise a
    nonpositive sweep margin is only "indeterminate".

    Float screen.  Before any exact sum, every row f is evaluated in
    doubles at the center, and the one verdict floats may give, "fail"
    with note ``CENTER_FAILS``, is returned when the minimum over black
    rows of (f + slack) is below the maximum over blue rows of
    (f - slack).  With w = sum |c|/den and k terms, a row's slack is
    w * (2 * 10^-precision + (k + 64) * 2^-44):

    - each kernel enclosure is at most 2 grid units wide and holds the
      true sine, so the exact row bounds lie within w * 2 * 10^-precision
      of the true value;
    - with u = 2^-53, an atom's angle is reduced modulo 360 on integers
      and divided once (error <= 360u degrees, 2*pi*u radians), then
      multiplied by the double pi/180 (relative error <= 3u, so 6*pi*u
      radians below 2*pi): at most 26u radians, and |sin'| <= 1; one ulp
      of ``math.sin`` adds 2u, so each sine is within 28u.  The rounded
      c/den and the product add 2u per unit of |c|/den, k sequential
      additions at most k*u*w, and rounding f +- slack (with the slack's
      own roundings) 2u*w: in all w * (k + 32) * u.  The slack's
      w * (k + 64) * 2^-44 covers that 512 times over, enough for a libm
      sine that is hundreds of ulps off.

    So the screen fails a square only where the exact bounds fail it too;
    passes, margins and every other verdict come from the integers.

    Retry gate.  When the derivative sweep leaves the square
    indeterminate, each row gets a lower bound, on this precision's grid,
    of its bump at any precision: the smaller of the coefficient bump
    floor(rho * g) and the derivative bump floor(rho * d / 10^precision),
    where rho = r * pi_lo/180 * 10^precision with pi_lo the lower end of
    the pi enclosure, and d sums over both parts the distance of the
    derivative bounds from 0 plus floor(rho * g2).  Every precision's
    bounds enclose the true score, which lies in [lo, hi], so a pass at
    any precision needs min over black rows of (hi - bump) above max over
    blue rows of (lo + bump).  Where it is not, the verdict is
    "indeterminate" with note ``NO_PRECISION_PASSES``, decided on
    integers like every pass.

    Float retry gate.  After the screen and before any exact sum, the gate
    is tried in doubles.  The exact bounds count in 1/N, N = den *
    10^precision; f, err and slack are a row's float value, float error
    and screen slack.  It returns the gate's verdict only where three
    conditions hold, which make it the exact path's verdict:

    - (a) the exact gate fires: min over black rows of
      (floor(N * (f + slack)) - L) <= max over blue rows of
      (ceil(N * (f - slack)) + L).  The integer hi is at most
      N * (f + slack) and lo at least N * (f - slack), and L = min(
      floor(rho * g), floor(rho * d' / 10^precision)) is at most the
      exact bump, since d' <= d: d' sums over both parts
      floor(N * max(0, |f_d| - slack_d)) + floor(rho * g2).  A part's
      float value f_d sums the row's c/den times m*cos (n*cos) of each
      atom's angle, the cosine with the sine's error argument and the
      products adding 3u per unit of |c*m|/den (|c*n|/den), within the
      budget above; its weight w_d and k terms give slack_d =
      w_d * 2 * 10^-precision + err_d as above.  The part's exact bounds
      lie within w_d * 2 * 10^-precision of its true value, and that
      within err_d of f_d, so their distance from 0 is at least
      N * (|f_d| - slack_d).  Each floor(N * v) is exact, on v's integer
      ratio.
    - (b) the exact "center fails" test does not fire: min over black rows
      of (f - err) > max over blue rows of (f + err) puts every true black
      score above every true blue one, and the bounds enclose them.
    - (c) neither sweep passes.  This follows from (a): with exact bumps
      bump_lo <= bump2 <= bump and lo <= hi, min over black rows of
      (lo - bump2) <= min over black rows of (hi - bump_lo) <= max over
      blue rows of (lo + bump_lo) <= max over blue rows of (hi + bump2).

    (a) is first tried with L = floor(rho * g), the most L can be; a square
    that leaves open may pass, and needs no derivative floats.  Nor does a
    row whose reach misses the other color's even then, a black one above
    every blue reach or a blue one below every black reach: it keeps that
    L, and smaller L elsewhere only widen its miss, so it never decides.

    Witness rows.  Before the screen, the two rows that decided the
    system's last screened "center fails" are evaluated alone, each in
    doubles exactly as the screen evaluates it, taking sines of their own
    atoms only.  When the black one's f + slack is below the blue one's
    f - slack, the least black f + slack is below the greatest blue
    f - slack, so the full screen would fail the square too: the verdict
    is that "fail" with note ``CENTER_FAILS``, and otherwise the full
    screen runs.

    ``memo`` is the kernel's memo of folded angles (``numeric.sin_scaled``)
    for the square's W and one precision, and may be shared by every
    square with that W.  A line system evaluates at its own chord
    midpoint and takes none.  The two exact sweeps share one map of atoms
    to kernel bounds, local to the call.
    """
    if precision < MIN_PRECISION:
        raise ValueError(
            f"precision {precision} below minimum {MIN_PRECISION}")
    if system.empty:
        return Certificate("fail", note="empty region")
    if system.kind == "band":
        if not _inside(square, system.polygon.faces):
            return Certificate("fail", note="outside the code's polygon")
        X, Y, W = square.X, square.Y, square.W
    else:
        if memo is not None:
            raise ValueError("a line system takes no shared kernel memo")
        chord = _chord_in_square(system, square)
        if chord is None:
            return Certificate("fail", note="line misses the square")
        X, Y, W = to_homogeneous(segment_midpoint(chord))
    if _witness_fails(system, X, Y, W, precision):
        return Certificate("fail", note=CENTER_FAILS)
    angles, values = _center_floats(system, X, Y, W)
    if _center_fails(system, values, precision):
        return Certificate("fail", note=CENTER_FAILS)
    rad_lo, rad = _radians(square, precision)
    if _hopeless(system, angles, values, precision, rad_lo):
        return Certificate("indeterminate", note=NO_PRECISION_PASSES)
    cache: dict = {}
    scale = 10 ** precision
    bounds = atom_bounds(system.atoms, X, Y, W, precision, cache, memo)
    evals = []
    for row in system.rows:
        lo, hi = dot_bounds(row.terms, bounds)
        evals.append((row.is_black, lo, hi, _ceil_times(rad, scale * row.g)))
    black, blue = separation((b, lo - bump if b else hi + bump)
                             for b, lo, hi, bump in evals)
    if black > blue:
        return Certificate("pass", Fraction(black - blue, system.den * scale))
    black, blue = separation((b, hi if b else lo) for b, lo, hi, _ in evals)
    if black <= blue:
        return Certificate("fail", note=CENTER_FAILS)
    # The coefficient-sum sweep was too pessimistic.  Bound the score
    # movement again through the derivative polynomials evaluated at the
    # center: |f(q) - f(center)| <= r*(pi/180)*(sup|df/dx| + sup|df/dy|),
    # where each sup over the square is the center value widened by the
    # derivative's own coefficient-sum sweep.  Never looser than the plain
    # bump, so passes already issued are unaffected.  ``reach`` is the
    # retry gate's: no precision sweeps less than r * pi_lo/180.
    bounds = atom_bounds(system.partners, X, Y, W, precision, cache, memo)
    swept, reach = [], []
    for (is_black, lo, hi, bump), row in zip(evals, system.rows):
        sup = dist = 0
        for part in row.parts:
            dlo, dhi = dot_bounds(part.terms, bounds)
            sup += max(abs(dlo), abs(dhi)) + _ceil_times(rad, scale * part.g2)
            dist += max(dlo, -dhi, 0) + _floor_times(rad_lo, scale * part.g2)
        bump2 = min(bump, _ceil_times(rad, sup))
        bump_lo = min(_floor_times(rad_lo, scale * row.g),
                      _floor_times(rad_lo, dist))
        swept.append((is_black, lo - bump2 if is_black else hi + bump2))
        reach.append((is_black, hi - bump_lo if is_black else lo + bump_lo))
    black, blue = separation(swept)
    if black > blue:
        return Certificate("pass", Fraction(black - blue, system.den * scale))
    black, blue = separation(reach)
    if black <= blue:
        return Certificate("indeterminate", note=NO_PRECISION_PASSES)
    return Certificate("indeterminate")


# --- quadtree cover ---------------------------------------------------

class CoverRecord:
    """One certified square: which corpus code covered it and how safely.

    ``letters`` names the assignment that certified (informational; it is
    not serialized and does not take part in equality).
    """

    __slots__ = ("square", "code_index", "margin", "precision", "letters")

    def __init__(self, square, code_index, margin, precision, letters=None):
        self.square = square
        self.code_index = code_index
        self.margin = margin
        self.precision = precision
        self.letters = letters

    def __eq__(self, other):
        return (isinstance(other, CoverRecord)
                and self.square == other.square
                and self.code_index == other.code_index
                and self.margin == other.margin
                and self.precision == other.precision)

    def __repr__(self):
        return (f"CoverRecord({self.square}, code {self.code_index}, "
                f"margin {self.margin}, p{self.precision})")


class CoverResult:
    """Quadtree cover outcome: certified squares, explicit failures, and
    the run parameters needed to reproduce it."""

    __slots__ = ("target", "corpus_size", "precision", "max_depth",
                 "records", "failures", "max_depth_used")

    def __init__(self, target, corpus_size, precision, max_depth, records,
                 failures, max_depth_used):
        self.target = tuple((Fraction(x), Fraction(y)) for x, y in target)
        self.corpus_size = corpus_size
        self.precision = precision
        self.max_depth = max_depth
        self.records = tuple(records)
        self.failures = tuple(failures)
        self.max_depth_used = max_depth_used

    @property
    def complete(self) -> bool:
        return not self.failures

    @property
    def square_count(self) -> int:
        return len(self.records)

    @property
    def min_margin(self):
        return min((r.margin for r in self.records), default=None)

    def __eq__(self, other):
        return (isinstance(other, CoverResult)
                and self.target == other.target
                and self.corpus_size == other.corpus_size
                and self.precision == other.precision
                and self.max_depth == other.max_depth
                and self.records == other.records
                and self.failures == other.failures
                and self.max_depth_used == other.max_depth_used)

    def to_text(self) -> str:
        lines = ["cover 1",
                 f"precision {self.precision}",
                 f"max-depth {self.max_depth}",
                 "target " + " ".join(f"{x},{y}" for x, y in self.target),
                 f"corpus-size {self.corpus_size}"]
        for rec in self.records:
            s = rec.square
            lines.append(f"square {s.x} {s.y} {s.r} {rec.code_index} "
                         f"{rec.margin} p{rec.precision}")
        for s in self.failures:
            lines.append(f"failure {s.x} {s.y} {s.r}")
        mm = self.min_margin
        lines.append(
            f"summary squares={self.square_count} "
            f"failures={len(self.failures)} "
            f"min-margin={'none' if mm is None else mm} "
            f"max-depth-used={self.max_depth_used} "
            f"complete={'yes' if self.complete else 'no'}")
        return "\n".join(lines) + "\n"

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())

    @classmethod
    def parse(cls, text: str) -> "CoverResult":
        """Rebuild a result from its text; anything a cover cannot have
        written raises ``ValueError`` naming the offending line."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].split() != ["cover", "1"]:
            raise ValueError("not a cover file")
        if len(lines) < 6:
            raise ValueError("truncated cover file")
        precision = _integer(_field(lines[1], "precision"), lines[1])
        if precision < MIN_PRECISION:
            raise ValueError(f"precision below {MIN_PRECISION} in cover line "
                             f"{lines[1]!r}")
        max_depth = _integer(_field(lines[2], "max-depth"), lines[2])
        if max_depth < 0:
            raise ValueError(f"negative max-depth in cover line "
                             f"{lines[2]!r}")
        target = tuple(_vertex(item, lines[3])
                       for item in _field(lines[3], "target").split())
        if len(target) < 3:
            raise ValueError(f"target with fewer than 3 vertices in cover "
                             f"line {lines[3]!r}")
        corpus_size = _integer(_field(lines[4], "corpus-size"), lines[4])
        if not lines[-1].startswith("summary "):
            raise ValueError("missing summary line")
        records, failures = [], []
        for ln in lines[5:-1]:
            parts = ln.split()
            if (parts[0], len(parts)) not in (("square", 7), ("failure", 4)):
                raise ValueError(f"unrecognized cover line: {ln!r}")
            x, y, r = (_rational(v, ln) for v in parts[1:4])
            if r <= 0:
                raise ValueError(f"nonpositive half side in cover line "
                                 f"{ln!r}")
            if parts[0] == "failure":
                failures.append(Square(x, y, r))
                continue
            index = _integer(parts[4], ln)
            margin = _rational(parts[5], ln)
            if not parts[6].startswith("p"):
                raise ValueError(f"bad precision tag: {ln!r}")
            tag = _integer(parts[6][1:], ln)
            if not 0 <= index < corpus_size:
                raise ValueError(f"code index outside the corpus in "
                                 f"cover line {ln!r}")
            if margin <= 0:
                raise ValueError(f"nonpositive margin in cover line {ln!r}")
            if tag < MIN_PRECISION:
                raise ValueError(f"precision below {MIN_PRECISION} in "
                                 f"cover line {ln!r}")
            records.append(CoverRecord(Square(x, y, r), index, margin, tag))
        summary = {}
        for kv in lines[-1].split()[1:]:
            name, eq, value = kv.partition("=")
            if not eq:
                raise ValueError(f"summary item without '=' in cover line "
                                 f"{lines[-1]!r}")
            summary[name] = value
        missing = {"squares", "failures", "min-margin", "max-depth-used",
                   "complete"} - summary.keys()
        if missing:
            raise ValueError(f"summary lacks {', '.join(sorted(missing))}")
        last = lines[-1]
        out = cls(target, corpus_size, precision, max_depth, records,
                  failures, _integer(summary["max-depth-used"], last))
        mm = out.min_margin
        stated = summary["min-margin"]
        if (_integer(summary["squares"], last) != out.square_count
                or _integer(summary["failures"], last) != len(out.failures)
                or (stated != "none" and _rational(stated, last) != mm)
                or (stated == "none") != (mm is None)
                or summary["complete"] != ("yes" if out.complete else "no")):
            raise ValueError("summary does not match the records")
        return out


def _rational(text: str, line: str) -> Fraction:
    """One number of a cover-file line; a bad one names its line."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational number {text!r} in cover line "
                         f"{line!r}") from None


def _vertex(item: str, line: str) -> tuple:
    """One ``x,y`` vertex of a target line; a bad one names its line."""
    parts = item.split(",")
    if len(parts) != 2:
        raise ValueError(f"vertex {item!r} is not x,y in cover line "
                         f"{line!r}")
    return tuple(_rational(v, line) for v in parts)


def _integer(text: str, line: str) -> int:
    """One integer of a cover-file line; a bad one names its line."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer {text!r} in cover line "
                         f"{line!r}") from None


def _field(line: str, name: str) -> str:
    if not line.startswith(name + " "):
        raise ValueError(f"expected {name!r} line, got {line!r}")
    return line[len(name) + 1:]


def _box(bbox):
    """The closed box x0 <= x <= x1, y0 <= y <= y1 of rational bounds as
    four integer halfplanes a*x + b*y + c >= 0."""
    x0, y0, x1, y1 = bbox
    return ((x0.denominator, 0, -x0.numerator),
            (-x1.denominator, 0, x1.numerator),
            (0, y0.denominator, -y0.numerator),
            (0, -y1.denominator, y1.numerator))


def _meets(square: Square, box) -> bool:
    """Whether the square touches the closed ``_box``."""
    return all(square.spread(a, b, c)[1] >= 0 for a, b, c in box)


def _inside(square: Square, halfplanes) -> bool:
    """Whether the closed square lies in the open halfplanes' common part."""
    return all(square.spread(a, b, c)[0] > 0 for a, b, c in halfplanes)


def _walls(target):
    """Integer halfplanes of a counterclockwise target: its edge lines
    p x q, positive inside, then its box.  A square overlaps the target in
    positive area unless one of them separates the two (the separating
    axis theorem), which needs the target convex with no vertex repeated
    in a row; anything else raises ``ValueError``."""
    vertices = [to_homogeneous(v) for v in target]
    pairs = list(zip(vertices, vertices[1:] + vertices[:1]))
    if any(p == q for p, q in pairs):
        raise ValueError("target polygon repeats a vertex")
    edges = [(p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
              p[0] * q[1] - p[1] * q[0]) for p, q in pairs]
    if any(a * X + b * Y + c * W < 0
           for a, b, c in edges for X, Y, W in vertices):
        raise ValueError("target polygon is not convex")
    return edges + list(_box(polygon_bbox(target)))


def _cover_node(square: Square, depth: int, plans, hint, walls, system,
                precision: int, max_depth: int, memos: dict):
    """One quadtree node of ``cover``: None when the square overlaps the
    target (``walls``) in no positive area, else a ``CoverRecord`` for the
    first candidate that certifies it, else the square itself, a failure,
    when it has no candidate or lies at ``max_depth``, else its children's
    candidates and hint.  The candidates are the ``plans`` whose box meets
    the square, ``hint`` first; only those whose polygon holds the square
    are certified (``system`` maps a plan key to its region system).
    Indeterminate ones are retried at double precision unless the gate
    showed that no precision can pass; the first of them, retried or not,
    leads the children's candidates.  Each precision p uses the level's
    kernel memo ``memos[p]``.
    """
    if not all(square.spread(a, b, c)[1] > 0 for a, b, c in walls):
        return None
    cands = [plan for plan in plans if _meets(square, plan[2])]
    if hint in cands:
        cands.remove(hint)
        cands.insert(0, hint)
    # a square poking out of a polygon cannot be certified; tested lazily,
    # so a pass ends the search before later candidates build systems
    todo = (plan for plan in cands if _inside(square, plan[1].faces))
    lead = None
    for p in (precision, 2 * precision):
        memo, retry = memos.setdefault(p, {}), []
        for plan in todo:
            got = system(plan[0])
            cert = certify_square(got, square, p, memo)
            if cert.passed:
                return CoverRecord(square, plan[0][0], cert.margin, p,
                                   got.asg.symbol(1) + got.asg.symbol(2))
            if cert.status == "indeterminate":
                if lead is None:
                    lead = plan
                if cert.note != NO_PRECISION_PASSES:
                    retry.append(plan)
        todo = retry
    if not cands or depth >= max_depth:
        return square
    return cands, lead


def cover(target, corpus, *, precision: int = MIN_PRECISION,
          max_depth: int = DEFAULT_MAX_DEPTH, threads: int = 1) -> CoverResult:
    """Certify a convex rational target polygon against a corpus of codes.

    The target must be convex, with no vertex repeated in a row (collinear
    vertices are fine); any other polygon raises ``ValueError``, and so do
    a precision below ``MIN_PRECISION`` and a negative ``max_depth``.
    Quadtree from the target's bounding square, walked level by level, one
    ``_cover_node`` step per square.  The squares of a level share one W,
    so they share one kernel memo per precision, dropped with the level
    (it never holds more than one level's angles).  Candidate order is the
    corpus order filtered down the parent chain, with the parent's most
    promising code tried first.  The candidates (``_cover_plans``) are
    stable codes under each of their six assignments, which relabel one
    symbol walk and so come all or none.  ``threads`` is accepted for
    compatibility and ignored.
    """
    if precision < MIN_PRECISION:
        raise ValueError(f"precision {precision} below minimum "
                         f"{MIN_PRECISION}")
    if max_depth < 0:
        raise ValueError(f"negative max_depth {max_depth}")
    codes = [getattr(e, "code", e) for e in corpus]
    target = [(Fraction(x), Fraction(y)) for x, y in target]
    if len(target) < 3 or polygon_area2(target) == 0:
        raise ValueError("target polygon is degenerate")
    if polygon_area2(target) < 0:
        target.reverse()
    walls = _walls(target)
    x0, y0, x1, y1 = polygon_bbox(target)
    root = Square((x0 + x1) / 2, (y0 + y1) / 2, max(x1 - x0, y1 - y0) / 2)
    plans, asgs = _cover_plans(codes, root)

    @functools.cache  # built lazily, shared across the tree
    def system(key):
        return region_system(codes[key[0]], asgs[key])

    records, failures = [], []
    max_depth_used, depth, nodes = 0, 0, [(root, plans, None)]
    while nodes:
        memos, children, done = {}, [], len(records) + len(failures)
        for square, allowed, hint in nodes:
            step = _cover_node(square, depth, allowed, hint, walls, system,
                               precision, max_depth, memos)
            if isinstance(step, CoverRecord):
                records.append(step)
            elif isinstance(step, Square):
                failures.append(step)
            elif step is not None:
                children.extend((child, *step) for child in square.children())
        if len(records) + len(failures) > done:
            max_depth_used = depth
        nodes, depth = children, depth + 1
    return CoverResult(target, len(codes), precision, max_depth, records,
                       failures, max_depth_used)


def _cover_plans(codes, root: Square):
    """``cover``'s plans under ``root``: (key, polygon, box) per key (code
    index, ``ASSIGNMENT_ORDER`` index) in corpus order, and each key's
    assignment.  Only stable codes enter, since a line system never
    certifies area on its own.  A code's six assignments are relabelings
    of one symbol walk, so ``classify.corner_boxes`` gives all six corner
    boxes (0 < n*angle < 180 on the largest fans) from it.  The polygon
    lies in its corner bounds, so a plan whose corner box misses the root
    could never be a candidate: it gets no assignment and no polygon.
    """
    plans, asgs = [], {}
    for i, code in enumerate(codes):
        if not is_stable(code):
            continue
        for j, outer in enumerate(corner_boxes(code)):
            if outer is None or not _meets(root, _box(outer)):
                continue
            asgs[i, j] = asg = assign_angles(code, *ASSIGNMENT_ORDER[j][:2])
            poly = angle_bounding_polygon(code, asg)
            if not poly.is_empty:
                plans.append(((i, j), poly, _box(poly.bbox())))
    return plans, asgs


# --- the triple rule --------------------------------------------------

def _positive_on_square(poly: TrigPoly, square, precision, cache) -> bool:
    iv = poly.eval(square.x, square.y, precision, cache)
    num, den = _radians(square, precision)[1]
    return iv.lo > Fraction(num, den) * poly.gradient_bound()


def triple_rule(square: Square, r1: RegionSystem, r2: RegionSystem,
                r3: RegionSystem, precision: int = MIN_PRECISION) -> str:
    """Close a square that straddles r3's unstable line between r1 and r2.

    Both side systems must own an inequality sharing a sine or cosine
    factor that vanishes exactly on the line; the factor then changes sign
    across it, one quotient positive and the other negative, so every
    point of the square lands in r1, in r2, or on the certified segment.
    The remaining inequalities and the quotients are certified over the
    whole square by the gradient step; the corners must stay inside the
    factor's sign-change band and between the segment's end delimiters.
    """
    if r3.kind != "line" or r3.line is None or r3.line.segment is None:
        return "not-applicable"
    a, b, c = r3.line.line
    if a == 0 and b == 0:
        return "not-applicable"
    kind = "sin" if c % 2 == 0 else "cos"
    sides = []
    for rs in (r1, r2):
        quotients, others = [], []
        for f in rs.pair_polys():
            q = f.divide_by_atom(kind, a, b)
            if q is None:
                others.append(f)
            else:
                quotients.append(q)
        if not quotients:
            return "not-applicable"
        sides.append((quotients, others))
    # the factor must keep a single zero on the square, the line itself
    line_value = 90 * c
    for cx, cy in square.corners():
        if not line_value - 180 < a * cx + b * cy < line_value + 180:
            return "fail"
    if not _along_segment(r3.line.segment, square.corners()):
        return "fail"
    cache: dict = {}

    def holds(polys, flip):
        return all(_positive_on_square(-p if flip else p, square, precision,
                                       cache)
                   for p in polys)

    for first_positive in (True, False):
        (u_list, f_others), (v_list, g_others) = sides
        if not first_positive:
            (u_list, f_others), (v_list, g_others) = sides[1], sides[0]
        if (holds(f_others, False) and holds(g_others, False)
                and holds(u_list, False) and holds(v_list, True)):
            return "pass"
    return "fail"


# --- thin-triangle pattern families -----------------------------------

class InfinitePatternRegion:
    """A point's membership in one of the two thin-corner code families.

    Family II is the one-parameter line (n+1)x + 2y = 180 carrying the
    code 1 2 1 2n; family I is the open wedge between consecutive such
    lines, covered by a fixed length-ten code.  Unpacks as (kind, n, code).
    """

    __slots__ = ("kind", "n", "code")

    def __init__(self, kind, n, code):
        self.kind = kind
        self.n = n
        self.code = code

    def __iter__(self):
        return iter((self.kind, self.n, self.code))

    def __eq__(self, other):
        return (isinstance(other, InfinitePatternRegion)
                and (self.kind, self.n, self.code.codes)
                == (other.kind, other.n, other.code.codes))

    def __repr__(self):
        return f"InfinitePatternRegion({self.kind}, n={self.n}, {self.code})"


def pattern_code(kind: str, n: int) -> CodeSequence:
    """The covering code of family ``kind`` at parameter ``n >= 1``."""
    if n < 1:
        raise ValueError("pattern parameter starts at 1")
    if kind == "II":
        return CodeSequence([1, 2, 1, 2 * n])
    if kind == "I":
        w = 2 * n + 1
        return CodeSequence([1, 1, w, 1, 2, 1, w, 1, 1, 4 * n + 2])
    raise ValueError(f"unknown pattern family {kind!r}")


def infinite_pattern(x, y):
    """Family membership of an exact angle pair, or None.

    On the line (n+1)x + 2y = 180 with 0 < x < 90/n the point belongs to
    family II; strictly between that line and the next, with
    0 < x < 90/(2n+2), to family I.  Everything is decided in exact
    rational arithmetic.
    """
    x, y = Fraction(x), Fraction(y)
    if x <= 0 or y <= 0 or x + y >= 180:
        raise ValueError("degenerate triangle")
    rest = 180 - 2 * y
    if rest <= 0:
        return None
    steps = rest / x
    if steps.denominator == 1:
        n = int(steps) - 1
        if n >= 1 and x < Fraction(90, n):
            return InfinitePatternRegion("II", n, pattern_code("II", n))
        return None
    n = math.floor(steps) - 1
    if n >= 1 and x < Fraction(90, 2 * n + 2):
        return InfinitePatternRegion("I", n, pattern_code("I", n))
    return None
