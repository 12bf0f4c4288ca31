"""Reference constructions that the library replaced with faster ones.

Each is written the slow, direct way, one letter pair or one assignment at
a time, so the tests can check the fast forms against them: the symbol
walk of ``assign_angles`` on letters, the stability defect over the
doubled traversal, the corner box of one assignment, and the plan list
``cover`` built from those.
"""

from fractions import Fraction

from billiardpath.classify import angle_bounding_polygon
from billiardpath.prover import _box, _meets
from billiardpath.sequences import AngleAssignment

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
