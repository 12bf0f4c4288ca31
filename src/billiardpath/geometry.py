"""Exact rational halfplane and polygon helpers.

Points live in the (x, y) angle plane with exact rational coordinates.  A
halfplane is a triple (a, b, c) meaning a*x + b*y + c > 0; polygons are
vertex lists of the closure, wound counterclockwise.  Clipping runs on
integers only: a vertex is a reduced homogeneous triple (X, Y, W) with
W > 0, standing for the point (X/W, Y/W), and vertices become Fraction
pairs only when a result is handed out.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

BASE_TRIANGLE = ((Fraction(0), Fraction(0)), (Fraction(180), Fraction(0)),
                 (Fraction(0), Fraction(180)))
_BASE_HOMOGENEOUS = ((0, 0, 1), (180, 0, 1), (0, 180, 1))


def _clip(poly, a, b, c):
    """Clip homogeneous vertices against a*X + b*Y + c*W >= 0.

    Returns ``poly`` itself when no vertex lies outside, so ``poly`` must
    list no vertex twice in a row, cyclically; no result of this function
    does.
    """
    vals = [a * X + b * Y + c * W for X, Y, W in poly]
    if min(vals) >= 0:
        return poly
    out = []
    for p, q, fp, fq in zip(poly, poly[1:] + poly[:1],
                            vals, vals[1:] + vals[:1]):
        if fp >= 0:
            out.append(p)
        if (fp > 0 and fq < 0) or (fp < 0 and fq > 0):
            # fp*q - fq*p is where the edge meets the line; W > 0 when fp > 0
            if fp < 0:
                fp, fq = -fp, -fq
            X = fp * q[0] - fq * p[0]
            Y = fp * q[1] - fq * p[1]
            W = fp * q[2] - fq * p[2]
            g = gcd(X, Y, W)
            out.append((X // g, Y // g, W // g))
    dedup = []
    for v in out:
        if not dedup or v != dedup[-1]:
            dedup.append(v)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def to_point(vertex):
    """The rational point (X/W, Y/W) of a homogeneous vertex."""
    X, Y, W = vertex
    return Fraction(X, W), Fraction(Y, W)


def to_homogeneous(point):
    """The reduced homogeneous triple (X, Y, W), W > 0, of a rational
    point."""
    x, y = Fraction(point[0]), Fraction(point[1])
    w = lcm(x.denominator, y.denominator)
    return (x.numerator * (w // x.denominator),
            y.numerator * (w // y.denominator), w)


def clip_polygon(vertices, halfplane):
    """Clip a convex polygon's closure against a*x + b*y + c >= 0.

    Vertices and coefficients may be any rationals; no vertex may follow
    itself, cyclically.
    """
    if not vertices:
        return []
    a, b, c = (Fraction(v) for v in halfplane)
    d = lcm(a.denominator, b.denominator, c.denominator)
    poly = _clip([to_homogeneous(v) for v in vertices],
                 int(a * d), int(b * d), int(c * d))
    return [to_point(v) for v in poly]


def intersect_homogeneous(halfplanes):
    """Homogeneous vertices of the closure of the base triangle cut by
    integer halfplanes, clipped in the order given; empty when nothing is
    left."""
    poly = list(_BASE_HOMOGENEOUS)
    for a, b, c in halfplanes:
        poly = _clip(poly, a, b, c)
        if not poly:
            return []
    return poly


def polygon_area2(vertices) -> Fraction:
    """Twice the signed area."""
    s = Fraction(0)
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return s


def polygon_bbox(vertices):
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    return min(xs), min(ys), max(xs), max(ys)


def point_satisfies(halfplanes, x, y, strict: bool = True) -> bool:
    """Whether (x, y) satisfies every a*x + b*y + c > 0 (>= 0 when not
    strict).  Each halfplane is tested as a*X + b*Y + c*W on the point's
    homogeneous triple, W > 0, which keeps integer halfplanes in ``int``."""
    X, Y, W = to_homogeneous((x, y))
    for a, b, c in halfplanes:
        v = a * X + b * Y + c * W
        if v < 0 or (strict and v == 0):
            return False
    return True


def line_segment_in_halfplanes(line, halfplanes):
    """Clip the line a*x + b*y = c*90 to the halfplane intersection.

    Returns (p0, p1) rational endpoints of the closed segment, or None when
    the intersection is empty or a single point.
    """
    a, b, c = (Fraction(v) for v in line)
    if a == 0 and b == 0:
        raise ValueError("degenerate line")
    # parametrize: point p + t*d with d along the line
    if b != 0:
        p = (Fraction(0), Fraction(c * 90, b))
        d = (Fraction(1), Fraction(-a, b))
    else:
        p = (Fraction(c * 90, a), Fraction(0))
        d = (Fraction(0), Fraction(1))
    t_lo, t_hi = None, None  # None means unbounded
    for ha, hb, hc in halfplanes:
        f0 = ha * p[0] + hb * p[1] + hc
        fd = ha * d[0] + hb * d[1]
        if fd == 0:
            if f0 < 0:
                return None
            continue
        t = -f0 / fd
        if fd > 0:
            if t_lo is None or t > t_lo:
                t_lo = t
        else:
            if t_hi is None or t < t_hi:
                t_hi = t
    if t_lo is None or t_hi is None or t_lo >= t_hi:
        return None
    p0 = (p[0] + t_lo * d[0], p[1] + t_lo * d[1])
    p1 = (p[0] + t_hi * d[0], p[1] + t_hi * d[1])
    return p0, p1


def segment_midpoint(seg):
    (x0, y0), (x1, y1) = seg
    return ((x0 + x1) / 2, (y0 + y1) / 2)
