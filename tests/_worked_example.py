"""Frozen reference data for the 1 1 2 3 3 2 shooting-vector example.

Terms are (coeff, kind, m, n) for coeff * kind(m*x + n*y) in degrees.
The reference sums fold one chain step through the y = x identity, so
they match the fully symbolic columns only after substituting y = x,
which ``substitute_line`` does.  ``reduce_on_line`` restricts a reference
``AffineForm`` to a line the same way, for checking the paper's
shooting-angle formulas.
"""

from fractions import Fraction

from billiardpath.numeric import TrigPoly

from _reference import AffineForm


def substitute_line(poly, s, t):
    """Replace y by s*x + t*90 in a TrigPoly; s and t must keep every
    argument integral."""
    s, t = Fraction(s), Fraction(t)
    out = TrigPoly()
    for (kind, m, n), c in poly.terms.items():
        mm = m + n * s
        qq = n * t
        if mm.denominator != 1 or qq.denominator != 1:
            raise ValueError("substitution leaves the integer lattice")
        out = out + TrigPoly.atom(kind, int(mm), 0, int(qq), c)
    return out


def reduce_on_line(form, line):
    """Restrict a theta-free ``AffineForm`` to the line a*x + b*y = c*90."""
    a, b, c = line
    if form.t:
        raise ValueError("form still mentions theta")
    if b != 0:
        return AffineForm(form.ax - form.ay * Fraction(a, b), 0,
                          form.c + form.ay * Fraction(c, b), 0)
    if a == 0:
        raise ValueError("degenerate line")
    return AffineForm(0, form.ay, form.c + form.ax * Fraction(c, a), 0)


WORKED_CODES = [1, 1, 2, 3, 3, 2]
WORKED_FIRST, WORKED_SECOND = "X", "Y"
WORKED_LETTERS = ["X", "Y", "Z", "Y", "X", "Z"]

# horizontal component, nine sine terms
C_REFERENCE = [
    (-2, "sin", 0, 1),
    (-1, "sin", 0, 3),
    (1, "sin", 0, 5),
    (-1, "sin", 2, -7),
    (1, "sin", 2, -5),
    (-1, "sin", 2, -1),
    (1, "sin", 2, 1),
    (1, "sin", 2, 3),
    (-1, "sin", 2, 7),
]

# vertical component, eight cosine terms
D_REFERENCE = [
    (-1, "cos", 0, 3),
    (1, "cos", 0, 5),
    (1, "cos", 2, -7),
    (-1, "cos", 2, -5),
    (1, "cos", 2, -1),
    (-1, "cos", 2, 1),
    (1, "cos", 2, 3),
    (-1, "cos", 2, 7),
]

# both components collapsed onto the y = x axis
C_ON_AXIS = [(-3, "sin", 1, 0), (-1, "sin", 3, 0),
             (3, "sin", 5, 0), (-1, "sin", 9, 0)]
D_ON_AXIS = [(1, "cos", 1, 0), (-3, "cos", 3, 0),
             (3, "cos", 5, 0), (-1, "cos", 9, 0)]

# gradient bounds sum |coeff| * (|m| + |n|) over the reference terms
G_C_REFERENCE = 46
G_D_REFERENCE = 44

# raw chain steps after the first two seed centers: each entry is
# (prefactor letter, m, n, q) meaning the step toward center number s+1
# (s = 2..7) has length sin(prefactor) and accumulated turning angle
# T = m*x + n*y + q*90 degrees, with the third angle already eliminated
# through z = 180 - x - y.  The step displacement is
# ((-1)**s * cos T, sin T) times the length.
CHAIN_STEPS = [
    ("z", 1, 0, 0),
    ("x", -1, 1, 0),
    ("x", -1, -3, 4),
    ("z", 1, 6, -4),
    ("y", 2, -6, 4),
    ("y", -4, 4, 0),
]
