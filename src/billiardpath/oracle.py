"""Floating-point billiard simulator used as ground truth in tests.

Everything here runs in plain doubles and proves nothing: it bounces rays,
unfolds mirror images, and computes where a closed path must run.  The
interval-certified modules never import it; the relationship only runs the
other way, with test suites holding the two against each other.
"""

from __future__ import annotations

import math
import random

from .sequences import PAIR_ANGLE, CodeSequence, code_to_side
from .tower import Triangle

# both scale with the triangle diameter
VERTEX_TOLERANCE = 1e-12
CLOSURE_TOLERANCE = 1e-9
# least sine of the angle between a starting ray and its side: a ray along
# the side has a rounding-sized normal part (sin 180 degrees is 1.2e-16)
ENTRY_TOLERANCE = 1e-12

_SIDE_CORNERS = {1: (0, 1), 2: (1, 2), 3: (0, 2)}
# (first side, its first bounce partner) pairs, in the order searches try
_START_PAIRS = ((1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1))


def _corners(tri: Triangle):
    """The float corners of ``tri``; raises ``ValueError`` when a side's
    squared length or twice the area is 0 in doubles, as in a triangle
    too thin for them: reflecting onto a side, or reading the isometry of
    an unfolding, divides by those."""
    verts = tri.vertices()
    (ax, ay), (bx, by), (cx, cy) = verts
    if 0 in ((bx - ax) ** 2 + (by - ay) ** 2, (cx - bx) ** 2 + (cy - by) ** 2,
             (cx - ax) ** 2 + (cy - ay) ** 2,
             (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)):
        raise ValueError("triangle too thin for doubles: a side's squared "
                         "length or its area is 0")
    return verts


class RayState:
    """A ray leaving a boundary point into the interior.

    ``t`` parametrizes the side from its first labeled corner; ``angle``
    is the absolute direction in degrees.
    """

    __slots__ = ("side", "t", "angle")

    def __init__(self, side: int, t: float, angle: float):
        if side not in (1, 2, 3):
            raise ValueError(f"side label must be 1, 2 or 3: {side}")
        if not 0 <= t <= 1:
            raise ValueError(f"side parameter outside [0, 1]: {t}")
        self.side = side
        self.t = float(t)
        self.angle = float(angle) % 360.0

    def point(self, tri: Triangle):
        p, q = tri.side(self.side)
        return (p[0] + self.t * (q[0] - p[0]),
                p[1] + self.t * (q[1] - p[1]))

    def direction(self):
        a = math.radians(self.angle)
        return (math.cos(a), math.sin(a))

    def enters_interior(self, tri: Triangle) -> bool:
        ia, ib = _SIDE_CORNERS[self.side]
        verts = tri.vertices()
        other = verts[3 - ia - ib]
        p, q = verts[ia], verts[ib]
        nx, ny = other[0] - p[0], other[1] - p[1]
        ex, ey = q[0] - p[0], q[1] - p[1]
        ee = ex * ex + ey * ey
        s = (nx * ex + ny * ey) / ee
        nx, ny = nx - s * ex, ny - s * ey
        dx, dy = self.direction()
        return dx * nx + dy * ny > ENTRY_TOLERANCE * math.hypot(nx, ny)

    def __repr__(self):
        return f"RayState(side={self.side}, t={self.t:.6f}, angle={self.angle:.6f})"


class TraceResult:
    """Bounce record: side labels hit, positions, and reflected headings."""

    __slots__ = ("sides", "vertex_hit", "points", "directions")

    def __init__(self, sides, vertex_hit, points, directions):
        self.sides = sides
        self.vertex_hit = vertex_hit
        self.points = points
        self.directions = directions


def trace(tri: Triangle, start: RayState, max_bounces: int,
          expect=None) -> TraceResult:
    """Follow a ray until it has bounced ``max_bounces`` times.

    A landing within the vertex tolerance of a corner stops the trace with
    the flag set; nothing is perturbed to push past it.  ``expect`` is an
    optional side-label sequence: the trace stops early as soon as a
    bounce deviates from it, leaving the matched prefix in ``sides``.
    A triangle too thin for doubles raises ``ValueError``.
    """
    verts = _corners(tri)
    if not start.enters_interior(tri):
        raise ValueError(f"{start} does not enter the interior")
    tol = VERTEX_TOLERANCE * tri.diameter()
    px, py = start.point(tri)
    dx, dy = start.direction()
    cur = start.side
    sides, points, directions = [], [(px, py)], []
    for _ in range(max_bounces):
        best = None
        for label in (1, 2, 3):
            if label == cur:
                continue
            ia, ib = _SIDE_CORNERS[label]
            qx, qy = verts[ia]
            ex, ey = verts[ib][0] - qx, verts[ib][1] - qy
            denom = dx * ey - dy * ex
            if abs(denom) < 1e-15:
                continue
            s = ((qx - px) * ey - (qy - py) * ex) / denom
            u = ((qx - px) * dy - (qy - py) * dx) / denom
            if s > 1e-13 and -1e-9 <= u <= 1 + 1e-9:
                if best is None or s < best[0]:
                    best = (s, u, label)
        if best is None:
            return TraceResult(tuple(sides), True, tuple(points),
                               tuple(directions))
        s, u, label = best
        if expect is not None and len(sides) < len(expect) \
                and label != expect[len(sides)]:
            return TraceResult(tuple(sides), False, tuple(points),
                               tuple(directions))
        px, py = px + s * dx, py + s * dy
        ia, ib = _SIDE_CORNERS[label]
        if (math.dist((px, py), verts[ia]) < tol
                or math.dist((px, py), verts[ib]) < tol):
            return TraceResult(tuple(sides), True, tuple(points),
                               tuple(directions))
        ex, ey = verts[ib][0] - verts[ia][0], verts[ib][1] - verts[ia][1]
        ee = ex * ex + ey * ey
        dot = (dx * ex + dy * ey) / ee
        dx, dy = 2 * dot * ex - dx, 2 * dot * ey - dy
        sides.append(label)
        points.append((px, py))
        directions.append((dx, dy))
        cur = label
    return TraceResult(tuple(sides), False, tuple(points), tuple(directions))


def _reflect_across(p, a, b):
    ex, ey = b[0] - a[0], b[1] - a[1]
    ee = ex * ex + ey * ey
    t = ((p[0] - a[0]) * ex + (p[1] - a[1]) * ey) / ee
    fx, fy = a[0] + t * ex, a[1] + t * ey
    return (2 * fx - p[0], 2 * fy - p[1])


def unfold_by_reflection(tri: Triangle, labels) -> list:
    """Float mirror copies along a run of side labels.

    Returns the corner triples of each copy; copy j+1 is copy j reflected
    across its own side ``labels[j]``.  Corner order stays (first, second,
    third), so side labels keep meaning in every copy.
    """
    copies = [tri.vertices()]
    for label in labels:
        cur = copies[-1]
        ia, ib = _SIDE_CORNERS[label]
        a, b = cur[ia], cur[ib]
        copies.append(tuple(p if k in (ia, ib) else _reflect_across(p, a, b)
                            for k, p in enumerate(cur)))
    return copies


class OrbitResult:
    """A closed path found by the oracle."""

    __slots__ = ("start", "theta", "residual", "start_pair")

    def __init__(self, start, theta, residual, start_pair):
        self.start = start
        self.theta = theta
        self.residual = residual
        self.start_pair = start_pair

    def __repr__(self):
        return (f"OrbitResult({self.start}, theta={self.theta:.9f}, "
                f"residual={self.residual:.3e})")


def start_assignment(code: CodeSequence, start_pair):
    """First two angle letters of the labeling that begins a trace on
    ``start_pair``; feed them to assign_angles to get the
    matching assignment."""
    s0, s1 = start_pair
    first = PAIR_ANGLE[frozenset((s0, s1))].upper()
    sides = code_to_side(code, start_pair).symbols
    i = code.codes[0]
    second = PAIR_ANGLE[frozenset((sides[i % len(sides)],
                                   sides[(i + 1) % len(sides)]))].upper()
    return first, second


def assignment_start(code: CodeSequence, asg):
    """Start pair whose labeling realizes the given assignment."""
    want = (asg.symbol(1), asg.symbol(2))
    for pair in _START_PAIRS:
        if start_assignment(code, pair) == want:
            return pair
    raise ValueError(f"no start pair realizes {want} for {code}")


def _isometry(copies):
    """The map taking the first copy onto the last, as (2x2 rows, offset):
    the affine map sending each corner of one to the same corner of the
    other."""
    (p0, p1, p2), (q0, q1, q2) = copies[0], copies[-1]
    ax, ay = p1[0] - p0[0], p1[1] - p0[1]
    bx, by = p2[0] - p0[0], p2[1] - p0[1]
    cx, cy = q1[0] - q0[0], q1[1] - q0[1]
    dx, dy = q2[0] - q0[0], q2[1] - q0[1]
    det = ax * by - ay * bx
    m00, m01 = (cx * by - dx * ay) / det, (dx * ax - cx * bx) / det
    m10, m11 = (cy * by - dy * ay) / det, (dy * ax - cy * bx) / det
    return (m00, m01, m10, m11), (q0[0] - m00 * p0[0] - m01 * p0[1],
                                  q0[1] - m10 * p0[0] - m11 * p0[1])


def _validate(tri, labels, start_pair, t, angle):
    """Trace one full period and measure how exactly the state returns.

    ``labels`` are the sides the period hits, in order, after leaving
    ``start_pair[0]``.
    """
    period = len(labels)
    start = RayState(start_pair[0], t, angle)
    if not start.enters_interior(tri):
        return None
    run = trace(tri, start, period, expect=labels)
    if run.vertex_hit or run.sides != labels:
        return None
    p0, pk = run.points[0], run.points[period]
    d0 = start.direction()
    dk = run.directions[period - 1]
    residual = max(math.dist(p0, pk),
                   math.dist(d0, dk) * tri.diameter())
    return OrbitResult(start, _theta_from(tri, start_pair, angle),
                       residual, start_pair)


def _theta_from(tri, start_pair, angle):
    """Shooting angle in (0, 180): the angle the departing path makes
    with the start side, measured toward the corner the first bounce fan
    pivots on (the corner shared with the next side)."""
    s0, s1 = start_pair
    verts = tri.vertices()
    (pivot,) = set(_SIDE_CORNERS[s0]) & set(_SIDE_CORNERS[s1])
    (other,) = set(_SIDE_CORNERS[s0]) - {pivot}
    ux = verts[pivot][0] - verts[other][0]
    uy = verts[pivot][1] - verts[other][1]
    a = math.radians(angle)
    dot = (math.cos(a) * ux + math.sin(a) * uy) / math.hypot(ux, uy)
    return math.degrees(math.acos(max(-1.0, min(1.0, dot))))


def find_orbit(tri: Triangle, code: CodeSequence, seed: int = 0,
               starts=_START_PAIRS):
    """Find a closed path with the code's bounce pattern.

    Unfolds each labeling once and reads the isometry from the first
    mirror copy to the last.  A translation opens a band: the straight
    lines along it that cross every mirror of the unfolded corridor, an
    interval of offsets across the direction; ``seed`` picks the checked
    start inside the middle half of that interval.  A glide reflection
    pins the path to its axis.  Each candidate is then re-traced bounce by
    bounce, and only a trace that returns to its start state within the
    closure tolerance counts.  Returns None when no labeling closes; a
    triangle too thin for doubles raises ``ValueError``.
    """
    _corners(tri)
    period = code.total()
    rng = random.Random(seed)
    close = CLOSURE_TOLERANCE * tri.diameter()
    for pair in starts:
        try:
            target = code_to_side(code, pair).symbols
        except ValueError:
            continue
        labels = target[1:] + (target[0],)
        copies = unfold_by_reflection(tri, labels)
        (m00, m01, m10, m11), (vx, vy) = _isometry(copies)
        best = None
        if period % 2 == 0:
            if max(abs(m00 - 1), abs(m01), abs(m10), abs(m11 - 1)) > 1e-9:
                continue  # band does not close for this labeling
            length = math.hypot(vx, vy)
            if length < close:
                continue
            nx, ny = -vy / length, vx / length
            # offsets across the direction of the lines that cross the
            # start side (from t = 0 to 1) and then every mirror
            ends = [tuple(nx * copy[k][0] + ny * copy[k][1]
                          for k in _SIDE_CORNERS[label])
                    for copy, label in zip(copies, (pair[0],) + labels)]
            lo, hi = max(map(min, ends)), min(map(max, ends))
            if not lo < hi:
                continue
            offset = lo + (0.25 + 0.5 * rng.random()) * (hi - lo)
            a, b = ends[0]
            best = _validate(tri, labels, pair, (offset - a) / (b - a),
                             math.degrees(math.atan2(vy, vx)))
        else:
            # orientation reverses: the path must ride the glide axis
            ax, ay = math.cos(0.5 * math.atan2(m10, m00)), \
                math.sin(0.5 * math.atan2(m10, m00))
            nx, ny = -ay, ax
            offset = 0.5 * (nx * vx + ny * vy)
            p, q = tri.side(pair[0])
            ex, ey = q[0] - p[0], q[1] - p[1]
            denom = nx * ex + ny * ey
            if abs(denom) < 1e-15:
                continue
            t = (offset - nx * p[0] - ny * p[1]) / denom
            if not 0 < t < 1:
                continue
            for dirx, diry in ((ax, ay), (-ax, -ay)):
                angle = math.degrees(math.atan2(diry, dirx))
                got = _validate(tri, labels, pair, t, angle)
                if got is not None and (best is None
                                        or got.residual < best.residual):
                    best = got
        if best is not None and best.residual < close:
            return best
    return None
