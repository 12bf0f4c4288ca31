"""Floating-point billiard simulator used as ground truth in tests.

Everything here runs in plain doubles and proves nothing: it bounces rays,
composes mirror images, and hunts for closed paths by search.  The
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

_SIDE_CORNERS = {1: (0, 1), 2: (1, 2), 3: (0, 2)}


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
        return dx * nx + dy * ny > 0

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
    """
    if not start.enters_interior(tri):
        raise ValueError(f"{start} does not enter the interior")
    tol = VERTEX_TOLERANCE * tri.diameter()
    verts = tri.vertices()
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
    """A closed path found by search."""

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
    for pair in ((1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)):
        if start_assignment(code, pair) == want:
            return pair
    raise ValueError(f"no start pair realizes {want} for {code}")


def _compose_mirrors(tri: Triangle, labels):
    """Isometry mapping the base copy onto the copy past the last label,
    as (2x2 rows, offset)."""
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    vx, vy = 0.0, 0.0
    cur = tri.vertices()
    for label in labels:
        ia, ib = _SIDE_CORNERS[label]
        a, b = cur[ia], cur[ib]
        ex, ey = b[0] - a[0], b[1] - a[1]
        ee = ex * ex + ey * ey
        c2 = (ex * ex - ey * ey) / ee
        s2 = 2 * ex * ey / ee
        # reflection across the line through a along (ex, ey)
        r00, r01, r10, r11 = c2, s2, s2, -c2
        wx = a[0] - r00 * a[0] - r01 * a[1]
        wy = a[1] - r10 * a[0] - r11 * a[1]
        m00, m01, m10, m11, vx, vy = (
            r00 * m00 + r01 * m10, r00 * m01 + r01 * m11,
            r10 * m00 + r11 * m10, r10 * m01 + r11 * m11,
            r00 * vx + r01 * vy + wx, r10 * vx + r11 * vy + wy)
        cur = tuple(p if k in (ia, ib) else _reflect_across(p, a, b)
                    for k, p in enumerate(cur))
    return (m00, m01, m10, m11), (vx, vy)


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
               starts=None):
    """Search for a closed path with the code's bounce pattern.

    Tries each labeling's mirror composition: a translation opens a whole
    band of parallel candidates, a glide reflection pins the path to its
    axis.  Every candidate is then re-traced bounce by bounce, and only a
    trace that returns to its start state within the closure tolerance
    counts.  The start-point grid densifies stepwise while nothing
    validates, so thin bands that slip between coarse probes are still
    found.  Returns None when no labeling closes.
    """
    if starts is None:
        starts = ((1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1))
    period = code.total()
    rng = random.Random(seed)
    close = CLOSURE_TOLERANCE * tri.diameter()
    for pair in starts:
        try:
            target = code_to_side(code, pair).symbols
        except ValueError:
            continue
        labels = target[1:] + (target[0],)
        (m00, m01, m10, m11), (vx, vy) = _compose_mirrors(tri, labels)
        best = None
        if period % 2 == 0:
            if max(abs(m00 - 1), abs(m01), abs(m10), abs(m11 - 1)) > 1e-9:
                continue  # band does not close for this labeling
            angle = math.degrees(math.atan2(vy, vx))
            for density in (24, 96, 384, 1536):
                grid = [(i + 0.5) / density for i in range(density)]
                rng.shuffle(grid)
                for t in grid:
                    got = _validate(tri, labels, pair, t, angle)
                    if got is not None and (best is None
                                            or got.residual < best.residual):
                        best = got
                if best is not None:
                    break
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
