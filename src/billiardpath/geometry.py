"""Exact rational halfplane and polygon helpers.

Everything works over Fractions in the (x, y) angle plane.  A halfplane is a
triple (a, b, c) meaning a*x + b*y + c > 0; polygons are vertex lists of the
closure, wound counterclockwise.
"""

from __future__ import annotations

from fractions import Fraction

BASE_TRIANGLE = ((Fraction(0), Fraction(0)), (Fraction(180), Fraction(0)),
                 (Fraction(0), Fraction(180)))


def clip_polygon(vertices, halfplane):
    """Clip a convex polygon's closure against a*x + b*y + c >= 0."""
    a, b, c = halfplane
    out = []
    n = len(vertices)
    for i in range(n):
        p, q = vertices[i], vertices[(i + 1) % n]
        fp = a * p[0] + b * p[1] + c
        fq = a * q[0] + b * q[1] + c
        if fp >= 0:
            out.append(p)
        if (fp > 0 and fq < 0) or (fp < 0 and fq > 0):
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    dedup = []
    for v in out:
        if not dedup or v != dedup[-1]:
            dedup.append(v)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def intersect_halfplanes(halfplanes, base=BASE_TRIANGLE):
    """Vertices of the closure of the intersection, possibly empty."""
    poly = list(base)
    for hp in halfplanes:
        poly = clip_polygon(poly, hp)
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
    x, y = Fraction(x), Fraction(y)
    for a, b, c in halfplanes:
        v = a * x + b * y + c
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
