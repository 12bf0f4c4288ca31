"""Code types, unstable lines, shooting angles, and bounding polygons.

A legal code paired with an angle assignment lands in one of five types.
Stability is measured by the defect triple; unstable codes live on a line in
the (x, y) angle map.  Angles are integer forms over the triples of
``SYMBOL_FORMS``, (ax, ay, q) for ax*x + ay*y + q*90 degrees.  Where the
geometry pins down the first shooting angle it is solved exactly, as such a
triple; the reflecting-angle expansion then bounds the code's region by a
convex polygon, compiled straight to integer halfplane triples (a, b, c)
meaning a*x + b*y + c > 0 with x and y in degrees.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .geometry import (
    intersect_homogeneous,
    line_segment_in_halfplanes,
    point_satisfies,
    polygon_area2,
    polygon_bbox,
    to_point,
)
from .sequences import ASSIGNMENT_ORDER, SYMBOL_FORMS, AngleAssignment, \
    CodeSequence, all_assignments, assign_angles, label_walk

CODE_TYPES = ("CS", "CNS", "OSO", "ONS", "OSNO")


def stability_defect(code: CodeSequence, asg: AngleAssignment):
    """Per-symbol difference of top and bottom code sums (dX, dY, dZ).

    Odd-length codes are measured over their doubled traversal, where the
    rows swap on the second pass; their defect therefore always vanishes.
    """
    d = {"X": 0, "Y": 0, "Z": 0}
    if len(code) % 2 == 0:
        for i, (s, v) in enumerate(zip(asg.symbols, code.codes)):
            d[s] += -v if i % 2 else v
    return d["X"], d["Y"], d["Z"]


def is_stable(code: CodeSequence) -> bool:
    """Zero defect; the six assignments relabel one walk, which only
    permutes the defect, so the first decides."""
    return stability_defect(code, assign_angles(code)) == (0, 0, 0)


def palindromic_pivots(code: CodeSequence):
    """1-based positions whose rotation reads E p1..pq E pq..p1.

    Both bracketing numbers must be even; such positions are the fans where
    the path meets a side at a right angle.  Empty for odd lengths and for
    codes without the shape.
    """
    k = len(code)
    if k % 2:
        return []
    c = code.codes
    q = k // 2 - 1
    out = []
    for p in range(k):
        w = c[p:] + c[:p]
        if (w[0] % 2 == 0 and w[q + 1] % 2 == 0
                and w[1:q + 1] == w[q + 2:][::-1]):
            out.append(p + 1)
    return out


def classify_code(code: CodeSequence) -> str:
    """One of CS, CNS, OSO, ONS, OSNO for a legal code."""
    if not code.is_legal():
        raise ValueError(f"not a legal code sequence: {code}")
    if len(code) % 2:
        return "OSO"
    if palindromic_pivots(code):
        return "CS" if is_stable(code) else "CNS"
    if code.minimal_period() % 2:
        # an even repetition of an odd code travels the odd path
        return "OSO"
    return "OSNO" if is_stable(code) else "ONS"


# --- shooting angles --------------------------------------------------

def shooting_angle_sequence(code: CodeSequence, asg: AngleAssignment):
    """First shooting angle of every fan, as integer forms (ax, ay, c, t).

    A form stands for ax*x + ay*y + c*90 + t*theta degrees: a
    ``SYMBOL_FORMS`` triple with a theta slot, t being +1 or -1.
    """
    phis = [(0, 0, 0, 1)]
    for i in range(len(code) - 1):
        wx, wy, wc = SYMBOL_FORMS[asg.symbol(i + 1)]
        n = code.codes[i]
        ax, ay, c, t = phis[-1]
        phis.append((-ax - n * wx, -ay - n * wy, 2 - c - n * wc, -t))
    return phis


def fan_angle_expansion(code: CodeSequence, asg: AngleAssignment):
    """Reflecting angles inside each fan: rising run, then falling run.

    A fan with code n and vertex angle w entered at angle phi reflects at
    phi, phi+w, ... on the way in and at 180-phi-j*w on the way out; the
    exact middle bounce of an even fan (a right angle at the palindrome
    pivots) is left out.  Angles are integer forms as in
    ``shooting_angle_sequence``.
    """
    phis = shooting_angle_sequence(code, asg)
    out = []
    for i, n in enumerate(code.codes):
        wx, wy, wc = SYMBOL_FORMS[asg.symbol(i + 1)]
        ax, ay, c, t = phis[i]
        half = n // 2
        rise_top = half if n % 2 else half - 1
        fan = [(ax + j * wx, ay + j * wy, c + j * wc, t)
               for j in range(rise_top + 1)]
        fan += [(-ax - j * wx, -ay - j * wy, 2 - c - j * wc, -t)
                for j in range(half + 1, n + 1)]
        out.append(fan)
    return out


def _plus(form, k: int, other):
    """form + k*other on integer triples."""
    return tuple(a + k * b for a, b in zip(form, other))


def solve_theta(code: CodeSequence, asg: AngleAssignment):
    """Exact first shooting angle as a ``SYMBOL_FORMS`` triple (ax, ay, q),
    or None when the type leaves it free.

    Odd codes close up perpendicular to their start, which fixes twice
    theta as 180 plus the alternating sum of fan turns.  Codes with
    palindromic pivots are fixed by the right angle at the first pivot p:
    t*theta + phi = (180 - n_p*w_p)/2, with t*theta + phi the pivot fan's
    shooting form.  Everything else has a one-parameter family and returns
    None.  Twice theta is an integer triple, halved exactly; an odd
    coefficient raises ``ValueError``.
    """
    if len(code) % 2:
        twice = (0, 0, 2)
        for i, n in enumerate(code.codes, 1):
            twice = _plus(twice, n if i % 2 == 0 else -n,
                          SYMBOL_FORMS[asg.symbol(i)])
    else:
        pivots = palindromic_pivots(code)
        if not pivots:
            return None
        p = pivots[0]
        ax, ay, c, t = shooting_angle_sequence(code, asg)[p - 1]
        twice = _plus((-2 * ax, -2 * ay, 2 - 2 * c), -code.codes[p - 1],
                      SYMBOL_FORMS[asg.symbol(p)])
        twice = tuple(t * v for v in twice)
    if any(v % 2 for v in twice):
        raise ValueError(f"shooting angle of {code} is not an integer form: "
                         f"twice it is {twice}")
    return tuple(v // 2 for v in twice)


# --- unstable lines ---------------------------------------------------

def _normalize_line(a: int, b: int, c: int):
    g = gcd(gcd(abs(a), abs(b)), abs(c))
    if g:
        a, b, c = a // g, b // g, c // g
    lead = a if a else (b if b else c)
    if lead < 0:
        a, b, c = -a, -b, -c
    return a, b, c


def unstable_line(code: CodeSequence, asg: AngleAssignment):
    """Line a*x + b*y = c*90 forced by a nonzero defect, else None."""
    dx, dy, dz = stability_defect(code, asg)
    if dx == dy == dz == 0:
        return None
    return _normalize_line(dx - dz, dy - dz, -2 * dz)


def canonical_unstable_line(code: CodeSequence):
    """Preferred (line, assignment) pair among the six relabelings.

    The candidates describe the same geometry with symbols permuted; ties
    are broken toward lines solvable as Y = slope*X + shift, then toward
    fewer zero coefficients and smaller shifts.  Returns None for stable
    codes.
    """
    best = None
    for asg in all_assignments(code):
        line = unstable_line(code, asg)
        if line is None:
            return None
        a, b, c = line
        zeros = (a == 0) + (b == 0) + (c == 0)
        key = (b >= 0, zeros, c, abs(b), a, b)
        if best is None or key < best[0]:
            best = (key, line, asg)
    if best is None:
        raise ValueError(f"no consistent assignment for {code}")
    return best[1], best[2]


# --- bounding polygons ------------------------------------------------

class BoundingPolygon:
    """Convex outer bound of a code region.

    Built from integer halfplane triples (a, b, c), each meaning
    a*x + b*y + c > 0 in degrees; the open base triangle is always added.
    A triple with a = b = 0 is a constant bound: it holds when c > 0 and
    otherwise makes the region empty.  ``halfplanes`` keeps the tightest
    triple per direction, as sorted primitive integer triples.  They are
    clipped in that order on integer homogeneous vertices (X, Y, W), W > 0,
    and ``faces`` is picked on those; ``vertices`` is the clipped closure
    as Fraction pairs, empty when the region is.  ``is_empty`` is fixed at
    construction: the region is empty when the closure has fewer than
    three vertices or zero area.
    """

    __slots__ = ("halfplanes", "vertices", "faces", "is_empty")

    def __init__(self, halfplanes):
        feasible = True
        # primitive direction (a, b) -> tightest offset c/g, kept as (c, g)
        best = {(1, 0): (0, 1), (0, 1): (0, 1), (-1, -1): (180, 1)}
        for a, b, c in halfplanes:
            g = gcd(a, b)
            if g == 0:
                feasible = feasible and c > 0
                continue
            key = (a // g, b // g)
            old = best.get(key)
            if old is None or c * old[1] < old[0] * g:
                best[key] = (c, g)
        primitive = []
        for (a, b), (c, g) in best.items():
            r = gcd(c, g)
            primitive.append((a * (g // r), b * (g // r), c // r))
        self.halfplanes = sorted(primitive)
        hull = intersect_homogeneous(self.halfplanes) if feasible else []
        self.vertices = [to_point(v) for v in hull]
        self.is_empty = len(hull) < 3 or polygon_area2(self.vertices) == 0
        # constraints tight somewhere on the result delimit the same region
        # as the whole set; point and segment tests use just those
        if not self.is_empty:
            self.faces = [hp for hp in self.halfplanes
                          if min(hp[0] * X + hp[1] * Y + hp[2] * W
                                 for X, Y, W in hull) == 0]
        else:
            self.faces = self.halfplanes

    def contains_point(self, x, y, strict: bool = True) -> bool:
        return bool(self.vertices) and \
            point_satisfies(self.faces, x, y, strict)

    def bbox(self):
        if not self.vertices:
            return None
        return polygon_bbox(self.vertices)

    def __repr__(self):
        inner = "empty" if self.is_empty else \
            " ".join(f"({float(x):.4g},{float(y):.4g})"
                     for x, y in self.vertices)
        return f"BoundingPolygon[{inner}]"


def _between(a: int, b: int, c: int):
    """0 < a*x + b*y + c < 180 as two halfplane triples."""
    return (a, b, c), (-a, -b, 180 - c)


def _corner_halfplanes(code: CodeSequence, asg: AngleAssignment):
    """0 < n*angle < 180 from the largest fan n at each symbol."""
    fans: dict[str, int] = {}
    for s, v in zip(asg.symbols, code.codes):
        fans[s] = max(fans.get(s, 0), v)
    out = []
    for s, n in sorted(fans.items()):
        wx, wy, wc = SYMBOL_FORMS[s]
        out += _between(n * wx, n * wy, n * wc * 90)
    return out


def corner_boxes(code: CodeSequence) -> list:
    """Per assignment in ``ASSIGNMENT_ORDER``, the box (x0, y0, x1, y1)
    of the corner bounds 0 < n*angle < 180 with the base triangle, or None
    when they are empty; the largest fan n of each ``label_walk`` label is
    found once and permuted per assignment.

    With a = 180/n_X, b = 180/n_Y and c = 180 - 180/n_Z, an absent symbol
    counting as n = 1 (no bound past the base triangle), the region is
    x < a, y < b, x + y > c inside the base triangle.  It is empty when
    a + b <= c, that is 1/n_X + 1/n_Y + 1/n_Z <= 1, under every
    assignment at once; otherwise x runs over (max(0, c - b), a) and y
    over (max(0, c - a), b), each end reached on the closure (c < 180).
    """
    fans = [1, 1, 1]
    for label, v in zip(label_walk(code), code.codes):
        fans[label] = max(fans[label], v)
    n0, n1, n2 = fans
    if (n0 + n1) * n2 + n0 * n1 <= n0 * n1 * n2:
        return [None] * 6
    # on the axis of label l, the upper end is 180/n_l and the lower end
    # (c - b for x, c - a for y) is 180 * (p*q - p - q) / (p*q), with p
    # and q the fans of the other two labels
    high = [Fraction(180, n) for n in fans]
    low = [Fraction(max(0, 180 * (p * q - p - q)), p * q)
           for p, q in ((n1, n2), (n2, n0), (n0, n1))]
    return [(low[lx], low[ly], high[lx], high[ly]) for lx, ly in
            ((sym.index("X"), sym.index("Y")) for sym in ASSIGNMENT_ORDER)]


_POLYGON_CACHE: dict = {}


def angle_bounding_polygon(code: CodeSequence,
                           asg: AngleAssignment) -> BoundingPolygon:
    """Bounds 0 < angle < 90 over every listed reflecting angle.

    With theta solved each form is doubled and bounded by 0 and 180.
    Otherwise every theta-carrying form is added to every form carrying
    -theta (complements join both pools), which cancels theta exactly and
    bounds the sum by 0 and 180; the corner bounds are merged in at the
    end.
    """
    cache_key = (tuple(code.codes), asg.symbol(1), asg.symbol(2))
    cached = _POLYGON_CACHE.get(cache_key)
    if cached is not None:
        return cached
    forms = [f for fan in fan_angle_expansion(code, asg) for f in fan]
    theta = solve_theta(code, asg)
    if theta is not None:
        tx, ty, tc = (2 * v for v in theta)
        halfplanes = [hp for ax, ay, c, t in forms
                      for hp in _between(2 * ax + t * tx, 2 * ay + t * ty,
                                         (2 * c + t * tc) * 90)]
    else:
        # integer triples (a, b, c): a*x + b*y + c in degrees, theta dropped
        plus, minus = set(), set()
        for ax, ay, c, t in forms:
            (plus if t > 0 else minus).add((ax, ay, c * 90))
        pool_p = plus | {(-a, -b, 90 - c) for a, b, c in minus}
        pool_m = minus | {(-a, -b, 90 - c) for a, b, c in plus}
        sums = {(pa + ma, pb + mb, pc + mc)
                for pa, pb, pc in pool_p for ma, mb, mc in pool_m}
        halfplanes = [hp for s in sums for hp in _between(*s)]
    poly = BoundingPolygon(halfplanes + _corner_halfplanes(code, asg))
    _POLYGON_CACHE[cache_key] = poly
    return poly


class LineRegion:
    """Unstable code line with its polygon-clipped segment."""

    __slots__ = ("a", "b", "c", "segment")

    def __init__(self, line, segment):
        self.a, self.b, self.c = line
        self.segment = segment  # (p0, p1) or None

    @property
    def line(self):
        return self.a, self.b, self.c

    def contains_point(self, x, y) -> bool:
        return self.a * Fraction(x) + self.b * Fraction(y) == self.c * 90

    def __repr__(self):
        return f"LineRegion({self.a}x + {self.b}y = {self.c}*90, " \
               f"segment={self.segment})"


def line_region(code: CodeSequence, asg: AngleAssignment):
    """LineRegion for an unstable pair, None for stable ones."""
    line = unstable_line(code, asg)
    if line is None:
        return None
    a, b, _ = line
    if a == 0 and b == 0:
        return LineRegion(line, None)
    poly = angle_bounding_polygon(code, asg)
    if not poly.vertices:
        return LineRegion(line, None)
    seg = line_segment_in_halfplanes(line, poly.faces)
    return LineRegion(line, seg)
