"""Interval-certified covers of the angle plane by verified code regions.

A region system packages, for one code under one letter assignment,
everything needed to certify axis-aligned squares: the convex bounding
polygon, the unstable line when there is one, and the turning scores of the
retained key points compiled to integer rows over a shared list of sine and
cosine atoms.  ``certify_square`` runs the gradient step on one square,
``cover`` drives a quadtree over a target polygon until every piece is
certified or the depth budget runs out, ``triple_rule`` closes squares that
straddle an unstable line between two adjacent regions, and
``infinite_pattern`` recognizes the two one-parameter code families that
take over near the thin-triangle corner.

Everything on the certification path is exact: rational centers, integer
coefficients, and enclosures rounded outward on a fixed decimal grid, so a
positive verdict is a proof and a cover file is reproducible bit for bit.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from fractions import Fraction

from .classify import angle_bounding_polygon, is_stable, line_region
from .geometry import (clip_polygon, line_segment_in_halfplanes,
                       polygon_area2, polygon_bbox, segment_midpoint)
from .numeric import (MIN_PRECISION, TrigPoly, enclose_cos, enclose_sin,
                      pi_enclosure)
from .sequences import CodeSequence, all_assignments
from .tower import BLACK, pruned_key_points, symbolic_tower

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
    """Closed axis-aligned square: exact rational center and half side."""

    __slots__ = ("x", "y", "r")

    def __init__(self, x, y, r):
        self.x = Fraction(x)
        self.y = Fraction(y)
        self.r = Fraction(r)
        if self.r <= 0:
            raise ValueError("half side must be positive")

    def corners(self):
        x, y, r = self.x, self.y, self.r
        return ((x - r, y - r), (x + r, y - r), (x + r, y + r), (x - r, y + r))

    def halfplanes(self):
        x, y, r = self.x, self.y, self.r
        return ((1, 0, r - x), (-1, 0, x + r), (0, 1, r - y), (0, -1, y + r))

    def children(self):
        h = self.r / 2
        x, y = self.x, self.y
        return (Square(x - h, y - h, h), Square(x + h, y - h, h),
                Square(x - h, y + h, h), Square(x + h, y + h, h))

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


class RegionSystem:
    """Square-certification data for one code under one assignment.

    ``kind`` is "band" for stable codes and "line" for unstable ones; a
    line system certifies only the piece of its line inside a square.
    ``rows`` hold the key-point scores as parallel integer arrays indexed
    into ``atoms``; every row shares one positive denominator so sign
    comparisons need no further scaling.
    """

    __slots__ = ("code", "asg", "kind", "polygon", "line", "sym", "keys",
                 "atoms", "rows", "den", "_deriv")

    def __init__(self, code, asg, kind, polygon, line, sym, keys, atoms,
                 rows, den):
        self.code = code
        self.asg = asg
        self.kind = kind
        self.polygon = polygon
        self.line = line
        self.sym = sym
        self.keys = keys
        self.atoms = atoms
        self.rows = rows
        self.den = den
        self._deriv = None

    @property
    def empty(self) -> bool:
        if self.kind == "line":
            return self.line is None or self.line.segment is None
        return self.polygon.is_empty

    def deriv_rows(self):
        """Per-row x and y derivative polynomials, compiled like ``rows``.

        Differentiating c*sin(m*x + n*y) in degree units gives
        (pi/180) * c*m * cos(m*x + n*y), so each part reuses the same
        angle arguments with the kinds swapped; the pi/180 stays with the
        caller.  Built on first use: only squares that the plain
        coefficient sweep cannot decide ever need these.
        """
        if self._deriv is None:
            atom_index: dict = {}
            atoms: list = []
            rows = []
            for _, ais, cis, _ in self.rows:
                parts = []
                for sel in (0, 1):
                    dais = array("i")
                    dcis = array("q")
                    g2 = 0
                    for ai, ci in zip(ais, cis):
                        k, m, n = self.atoms[ai]
                        f = m if sel == 0 else n
                        if f == 0:
                            continue
                        dk = "cos" if k == "sin" else "sin"
                        dc = ci * f if k == "sin" else -ci * f
                        di = atom_index.get((dk, m, n))
                        if di is None:
                            di = atom_index[(dk, m, n)] = len(atoms)
                            atoms.append((dk, m, n))
                        dais.append(di)
                        dcis.append(dc)
                        g2 += abs(dc) * (abs(m) + abs(n))
                    parts.append((dais, dcis, g2))
                rows.append(tuple(parts))
            self._deriv = (tuple(atoms), tuple(rows))
        return self._deriv

    def pair_polys(self):
        """Black-minus-blue score differences, positive where the code
        passes; the symbolic inequality set behind the compiled rows."""
        blues, blacks = [], []
        for p in self.keys:
            (blacks if p.color == BLACK else blues).append(
                self.sym.score_poly(p))
        out = [bk - bl for bk in blacks for bl in blues]
        self.sym._scores.clear()
        return out

    def __repr__(self):
        letters = self.asg.symbol(1) + self.asg.symbol(2)
        return f"RegionSystem({self.code}, {letters}, {self.kind})"


def region_system(code: CodeSequence, asg=None) -> RegionSystem:
    """Compile a code into its certification system.

    Without an explicit assignment the first consistent one is taken.  An
    infeasible polygon (or a line that misses it) leaves ``empty`` set; the
    system is still returned so callers can report why nothing was claimed.
    """
    if asg is None:
        choices = all_assignments(code)
        if not choices:
            raise ValueError(f"no consistent letter assignment for {code}")
        asg = choices[0]
    polygon = angle_bounding_polygon(code, asg)
    if is_stable(code):
        kind, line = "band", None
    else:
        kind, line = "line", line_region(code, asg)
    sym = symbolic_tower(code, asg)
    keys = tuple(pruned_key_points(sym))
    polys = [sym.score_poly(p) for p in keys]
    den = 1
    for sp in polys:
        for c in sp.terms.values():
            den = den * c.denominator // math.gcd(den, c.denominator)
    atom_index: dict = {}
    atoms: list = []
    rows = []
    for p, sp in zip(keys, polys):
        ais = array("i")
        cis = array("q")
        g = 0
        for (k, m, n), c in sorted(sp.terms.items()):
            ci = int(c * den)
            ai = atom_index.get((k, m, n))
            if ai is None:
                ai = atom_index[(k, m, n)] = len(atoms)
                atoms.append((k, m, n))
            ais.append(ai)
            cis.append(ci)
            g += abs(ci) * (abs(m) + abs(n))
        rows.append((p.color == BLACK, ais, cis, g))
    sym._scores.clear()
    return RegionSystem(code, asg, kind, polygon, line, sym, keys,
                        tuple(atoms), tuple(rows), den)


_RAD_UP: dict = {}


def _rad_per_degree_upper(precision: int) -> Fraction:
    got = _RAD_UP.get(precision)
    if got is None:
        got = _RAD_UP[precision] = pi_enclosure(precision).hi / 180
    return got


def _ceil(f: Fraction) -> int:
    return -((-f.numerator) // f.denominator)


def _atom_bounds(atoms, x, y, precision, cache):
    """Scaled-integer enclosures of every atom at one rational point."""
    out = []
    for k, m, n in atoms:
        key = (k, m, n, x, y)
        got = cache.get(key)
        if got is None:
            ang = m * x + n * y
            iv = enclose_sin(ang, precision) if k == "sin" \
                else enclose_cos(ang, precision)
            got = cache[key] = iv.scaled_bounds(precision)
        out.append(got)
    return out


def _chord_in_square(system: RegionSystem, square: Square):
    """Clip the system's line to the square; None when it misses, or the
    chord pokes past the polygon-clipped segment."""
    chord = line_segment_in_halfplanes(system.line.line, square.halfplanes())
    if chord is None:
        return None
    (q0, q1) = system.line.segment
    dx, dy = q1[0] - q0[0], q1[1] - q0[1]
    dd = dx * dx + dy * dy
    for px, py in chord:
        t = (px - q0[0]) * dx + (py - q0[1]) * dy
        if not 0 <= t <= dd:
            return None
    return chord


def certify_square(system: RegionSystem, square: Square,
                   precision: int = MIN_PRECISION) -> Certificate:
    """Gradient step on one square: every black key point must outscore
    every blue one across the whole square.

    The scores are evaluated once at the center (the line-segment midpoint
    for a line system) and swept over the square through the gradient
    bound, with the half side converted to radians by the upper bound of
    the pi enclosure.  "fail" is definitive (a corner leaves the polygon,
    the line misses the square, or the center itself fails); otherwise a
    nonpositive sweep margin is only "indeterminate".
    """
    if system.empty:
        return Certificate("fail", note="empty region")
    if system.kind == "band":
        for cx, cy in square.corners():
            if not system.polygon.contains_point(cx, cy):
                return Certificate("fail", note="outside the code's polygon")
        center = (square.x, square.y)
    else:
        chord = _chord_in_square(system, square)
        if chord is None:
            return Certificate("fail", note="line misses the square")
        center = segment_midpoint(chord)
    scale = 10 ** precision
    cache: dict = {}
    bounds = _atom_bounds(system.atoms, center[0], center[1], precision, cache)
    base = _rad_per_degree_upper(precision) * square.r * scale
    black_min = blue_max = None
    black_hi_min = blue_lo_max = None
    evals = []
    for is_black, ais, cis, g in system.rows:
        lo = hi = 0
        for ai, ci in zip(ais, cis):
            alo, ahi = bounds[ai]
            if ci >= 0:
                lo += ci * alo
                hi += ci * ahi
            else:
                lo += ci * ahi
                hi += ci * alo
        bump = _ceil(base * g)
        evals.append((is_black, lo, hi, bump))
        if is_black:
            swept = lo - bump
            if black_min is None or swept < black_min:
                black_min = swept
            if black_hi_min is None or hi < black_hi_min:
                black_hi_min = hi
        else:
            swept = hi + bump
            if blue_max is None or swept > blue_max:
                blue_max = swept
            if blue_lo_max is None or lo > blue_lo_max:
                blue_lo_max = lo
    if black_min is None or blue_max is None:
        raise ValueError("system lacks one of the two colors")
    if black_min > blue_max:
        margin = Fraction(black_min - blue_max, system.den * scale)
        return Certificate("pass", margin)
    if black_hi_min <= blue_lo_max:
        return Certificate("fail", note="center fails the turning test")
    # The coefficient-sum sweep was too pessimistic.  Bound the score
    # movement again through the derivative polynomials evaluated at the
    # center: |f(q) - f(center)| <= r*(pi/180)*(sup|df/dx| + sup|df/dy|),
    # where each sup over the square is the center value widened by the
    # derivative's own coefficient-sum sweep.  Never looser than the plain
    # bump, so passes already issued are unaffected.
    datoms, drows = system.deriv_rows()
    dbounds = _atom_bounds(datoms, center[0], center[1], precision, cache)
    rad = _rad_per_degree_upper(precision) * square.r
    black_min = blue_max = None
    for (is_black, lo, hi, bump), parts in zip(evals, drows):
        sup = 0
        for dais, dcis, g2 in parts:
            dlo = dhi = 0
            for ai, ci in zip(dais, dcis):
                alo, ahi = dbounds[ai]
                if ci >= 0:
                    dlo += ci * alo
                    dhi += ci * ahi
                else:
                    dlo += ci * ahi
                    dhi += ci * alo
            sup += max(abs(dlo), abs(dhi)) + _ceil(base * g2)
        bump2 = min(bump, _ceil(rad * sup))
        if is_black:
            swept = lo - bump2
            if black_min is None or swept < black_min:
                black_min = swept
        else:
            swept = hi + bump2
            if blue_max is None or swept > blue_max:
                blue_max = swept
    if black_min > blue_max:
        margin = Fraction(black_min - blue_max, system.den * scale)
        return Certificate("pass", margin)
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
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].split() != ["cover", "1"]:
            raise ValueError("not a cover file")
        if len(lines) < 6:
            raise ValueError("truncated cover file")
        precision = int(_field(lines[1], "precision"))
        max_depth = int(_field(lines[2], "max-depth"))
        target = tuple(
            tuple(Fraction(v) for v in pair.split(","))
            for pair in _field(lines[3], "target").split())
        corpus_size = int(_field(lines[4], "corpus-size"))
        if not lines[-1].startswith("summary "):
            raise ValueError("missing summary line")
        records, failures = [], []
        for ln in lines[5:-1]:
            parts = ln.split()
            if parts[0] == "square" and len(parts) == 7:
                x, y, r = (Fraction(v) for v in parts[1:4])
                if not parts[6].startswith("p"):
                    raise ValueError(f"bad precision tag: {ln!r}")
                records.append(CoverRecord(
                    Square(x, y, r), int(parts[4]), Fraction(parts[5]),
                    int(parts[6][1:])))
            elif parts[0] == "failure" and len(parts) == 4:
                failures.append(Square(*(Fraction(v) for v in parts[1:4])))
            else:
                raise ValueError(f"unrecognized cover line: {ln!r}")
        summary = dict(kv.split("=", 1) for kv in lines[-1].split()[1:])
        out = cls(target, corpus_size, precision, max_depth, records,
                  failures, int(summary["max-depth-used"]))
        mm = out.min_margin
        stated = summary["min-margin"]
        if (int(summary["squares"]) != out.square_count
                or int(summary["failures"]) != len(out.failures)
                or (stated != "none" and Fraction(stated) != mm)
                or (stated == "none") != (mm is None)
                or summary["complete"] != ("yes" if out.complete else "no")):
            raise ValueError("summary does not match the records")
        return out


def _field(line: str, name: str) -> str:
    if not line.startswith(name + " "):
        raise ValueError(f"expected {name!r} line, got {line!r}")
    return line[len(name) + 1:]


def _bbox_meets(b, square: Square) -> bool:
    x0, y0, x1, y1 = b
    return (square.x - square.r <= x1 and x0 <= square.x + square.r
            and square.y - square.r <= y1 and y0 <= square.y + square.r)


def cover(target, corpus, *, precision: int = MIN_PRECISION,
          max_depth: int = DEFAULT_MAX_DEPTH, threads: int = 1) -> CoverResult:
    """Certify a convex rational target polygon against a corpus of codes.

    Quadtree from the target's bounding square, visited breadth first:
    nodes missing the target (or overlapping it with zero area) are
    dropped, certified nodes become records, everything else splits until
    ``max_depth``, where the uncovered squares are reported as failures.
    An indeterminate verdict retries at double precision before splitting.
    Candidate order is the corpus order filtered down the parent chain,
    with the parent's most promising code tried first.  ``threads`` is
    accepted for compatibility and ignored.
    """
    codes = [getattr(e, "code", e) for e in corpus]
    target = [(Fraction(x), Fraction(y)) for x, y in target]
    if len(target) < 3 or polygon_area2(target) == 0:
        raise ValueError("target polygon is degenerate")
    if polygon_area2(target) < 0:
        target.reverse()
    # (key, polygon, bbox) per (entry index, assignment index), in corpus
    # order; a line system never certifies area on its own
    plans = []
    for i, code in enumerate(codes):
        if not is_stable(code):
            continue
        for j, asg in enumerate(all_assignments(code)):
            poly = angle_bounding_polygon(code, asg)
            if not poly.is_empty:
                plans.append(((i, j), poly, poly.bbox()))
    systems = {}  # built lazily, shared across the tree

    def system(key):
        got = systems.get(key)
        if got is None:
            i, j = key
            got = systems[key] = region_system(
                codes[i], all_assignments(codes[i])[j])
        return got

    def overlaps(square):
        piece = target
        for hp in square.halfplanes():
            piece = clip_polygon(piece, hp)
            if len(piece) < 3:
                return False
        return polygon_area2(piece) != 0

    x0, y0, x1, y1 = polygon_bbox(target)
    root = Square((x0 + x1) / 2, (y0 + y1) / 2, max(x1 - x0, y1 - y0) / 2)
    records, failures = [], []
    max_depth_used = 0
    queue = deque([(root, 0, plans, None)])
    while queue:
        square, depth, allowed, hint = queue.popleft()
        if not overlaps(square):
            continue
        sx0, sx1 = square.x - square.r, square.x + square.r
        sy0, sy1 = square.y - square.r, square.y + square.r
        cands = [plan for plan in allowed if _bbox_meets(plan[2], square)]
        if hint in cands:
            cands.remove(hint)
            cands.insert(0, hint)
        corners = square.corners()
        p, cert, pending = precision, None, []
        for plan in cands:
            key, poly, (bx0, by0, bx1, by1) = plan
            # cheap gates first: a square poking out of the outer bounding
            # box, then out of the polygon, cannot be certified, and the
            # exact corner test is what makes systems worth building
            if not (bx0 <= sx0 and sx1 <= bx1 and by0 <= sy0 and sy1 <= by1):
                continue
            if not all(poly.contains_point(cx, cy) for cx, cy in corners):
                continue
            cert = certify_square(system(key), square, p)
            if cert.passed:
                break
            if cert.status == "indeterminate":
                pending.append(plan)
        else:
            p = 2 * precision
            for plan in pending:
                cert = certify_square(system(plan[0]), square, p)
                if cert.passed:
                    break
        if cert is not None and cert.passed:
            max_depth_used = max(max_depth_used, depth)
            key = plan[0]
            asg = system(key).asg
            records.append(CoverRecord(square, key[0], cert.margin, p,
                                       asg.symbol(1) + asg.symbol(2)))
        elif not cands or depth >= max_depth:
            max_depth_used = max(max_depth_used, depth)
            failures.append(square)
        else:
            hint = pending[0] if pending else None
            queue.extend((child, depth + 1, cands, hint)
                         for child in square.children())
    return CoverResult(target, len(codes), precision, max_depth, records,
                       failures, max_depth_used)


# --- the triple rule --------------------------------------------------

def _positive_on_square(poly: TrigPoly, center, r, precision, cache) -> bool:
    iv = poly.eval(center[0], center[1], precision, cache)
    bump = _rad_per_degree_upper(precision) * r * poly.gradient_bound()
    return iv.lo - bump > 0


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
    (q0, q1) = r3.line.segment
    dx, dy = q1[0] - q0[0], q1[1] - q0[1]
    dd = dx * dx + dy * dy
    for cx, cy in square.corners():
        t = (cx - q0[0]) * dx + (cy - q0[1]) * dy
        if not 0 <= t <= dd:
            return "fail"
    center = (square.x, square.y)
    cache: dict = {}

    def holds(polys, flip):
        return all(_positive_on_square(-p if flip else p, center, square.r,
                                       precision, cache)
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
