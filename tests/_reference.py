"""Reference constructions that the library replaced with faster ones.

Each is written the slow, direct way, one letter pair or one assignment at
a time, so the tests can check the fast forms against them: the symbol
walk of ``assign_angles`` on letters, the stability defect over the
doubled traversal, the corner box of one assignment, and the plan list
``cover`` built from those.  ``AffineForm`` is the angle form of rational
coefficients that the integer triples of ``SYMBOL_FORMS`` replaced;
``solve_theta`` solves the shooting angle on it, halving as it goes.
``symbol_degrees`` is a symbol's angle in ``Fraction`` degrees, the rule
the towers' integer fan check replaced.
"""

from fractions import Fraction

from billiardpath.classify import (angle_bounding_polygon,
                                   palindromic_pivots,
                                   shooting_angle_sequence)
from billiardpath.prover import _box, _meets
from billiardpath.sequences import SYMBOL_FORMS, AngleAssignment, form_degrees

PAIRS = [(a, b) for a in "XYZ" for b in "XYZ" if a != b]


def third(a, b):
    (rest,) = {"X", "Y", "Z"} - {a, b}
    return rest


def walk_symbols(code, first, second):
    """Symbols of the code positions from ``first`` and ``second``: an
    even code number repeats the symbol two back, an odd one forces the
    third; the rule must hold across the seam (ValueError otherwise)."""
    k, c = len(code), code.codes
    if k == 1:
        raise ValueError(f"not a legal code sequence {code}: single run")
    a = [first, second] + [None] * (k - 2)
    for i in range(k - 2):
        a[i + 2] = a[i] if c[i + 1] % 2 == 0 else third(a[i], a[i + 1])
    for i in (k - 2, k - 1):
        expect = a[i] if c[(i + 1) % k] % 2 == 0 else \
            third(a[i], a[(i + 1) % k])
        if expect != a[(i + 2) % k]:
            raise ValueError(
                f"not a legal code sequence {code}: seam symbol mismatch")
    return a


def assignments(code):
    """Every pair of ``PAIRS`` whose walk closes, as assignments."""
    out = []
    for first, second in PAIRS:
        try:
            out.append(AngleAssignment(walk_symbols(code, first, second)))
        except ValueError:
            continue
    return out


def defect(code, asg):
    """(dX, dY, dZ) summed over the whole traversal, doubled when odd."""
    k = len(code)
    d = {"X": 0, "Y": 0, "Z": 0}
    for i in range(k if k % 2 == 0 else 2 * k):
        v = code.codes[i % k]
        d[asg.symbol(i + 1)] += -v if i % 2 else v
    return d["X"], d["Y"], d["Z"]


def corner_box(code, asg):
    """Box (x0, y0, x1, y1) of the corner bounds 0 < n*angle < 180 of one
    assignment with the base triangle, or None when they are empty (see
    ``classify.corner_boxes``)."""
    fans = {}
    for i, v in enumerate(code.codes, 1):
        fans[asg.symbol(i)] = max(fans.get(asg.symbol(i), 1), v)
    nx, ny, nz = (fans.get(s, 1) for s in "XYZ")
    if (nx + ny) * nz + nx * ny <= nx * ny * nz:
        return None
    return (Fraction(max(0, 180 * (ny * nz - ny - nz)), ny * nz),
            Fraction(max(0, 180 * (nx * nz - nx - nz)), nx * nz),
            Fraction(180, nx), Fraction(180, ny))


def cover_plans(codes, root):
    """``cover``'s plan list under ``root``, one assignment at a time:
    (key, polygon, box) for every stable code's assignment whose corner
    box meets the root and whose polygon is nonempty."""
    plans = []
    for i, code in enumerate(codes):
        asgs = assignments(code)
        if defect(code, asgs[0]) != (0, 0, 0):
            continue
        for j, asg in enumerate(asgs):
            outer = corner_box(code, asg)
            if outer is None or not _meets(root, _box(outer)):
                continue
            poly = angle_bounding_polygon(code, asg)
            if not poly.is_empty:
                plans.append(((i, j), poly, _box(poly.bbox())))
    return plans


class AffineForm:
    """Angle expression ax*x + ay*y + c*90 + t*theta, in degrees, with
    rational coefficients."""

    __slots__ = ("ax", "ay", "c", "t")

    def __init__(self, ax=0, ay=0, c=0, t=0):
        self.ax = Fraction(ax)
        self.ay = Fraction(ay)
        self.c = Fraction(c)
        self.t = Fraction(t)

    @classmethod
    def const(cls, degrees):
        return cls(0, 0, Fraction(degrees) / 90, 0)

    def coeffs(self):
        return self.ax, self.ay, self.c, self.t

    def __add__(self, other):
        return AffineForm(*(a + b for a, b in
                            zip(self.coeffs(), other.coeffs())))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self * -1

    def __mul__(self, k):
        return AffineForm(*(Fraction(k) * a for a in self.coeffs()))

    __rmul__ = __mul__


def symbol_degrees(symbol: str, x, y) -> Fraction:
    """Numeric angle value of a symbol at rational (x, y)."""
    if symbol not in SYMBOL_FORMS:
        raise ValueError(f"unknown angle symbol {symbol!r}")
    return form_degrees(SYMBOL_FORMS[symbol], x, y)


def symbol_value(symbol):
    """Angle value of a symbol as an ``AffineForm`` in (x, y)."""
    return AffineForm(*SYMBOL_FORMS[symbol])


def solve_theta(code, asg):
    """The first shooting angle as an ``AffineForm``, or None: half of
    180 plus the alternating fan turns for an odd code, else the right
    angle at the first palindromic pivot."""
    k, c = len(code), code.codes
    if k % 2:
        s = AffineForm.const(180)
        for i in range(1, k + 1):
            v = c[i - 1] * symbol_value(asg.symbol(i))
            s = (s + v) if i % 2 == 0 else (s - v)
        return s * Fraction(1, 2)
    pivots = palindromic_pivots(code)
    if not pivots:
        return None
    p = pivots[0]
    ax, ay, phi_c, t = shooting_angle_sequence(code, asg)[p - 1]
    target = (AffineForm.const(180) - c[p - 1] * symbol_value(asg.symbol(p))) \
        * Fraction(1, 2)
    return (target - AffineForm(ax, ay, phi_c, 0)) * (1 if t > 0 else -1)
