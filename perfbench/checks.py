"""Correctness checks on the program's outputs, run outside timed sections.

Each function returns a list of problems, empty when the output is
correct.  The geometry here is the benchmark's own: cover records are read
by a parser of its own and clipped and measured in exact rationals without
the package's geometry module, so a fault there cannot hide itself.
Enclosures are held against mpmath at 50 digits.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

MP_DIGITS = 50
# mpmath's own rounding at 50 digits; far below the widest grid step
# checked (10^-30), so no sound enclosure can fail by it.
MP_SLACK = mpmath.mpf(10) ** -45


def read_squares(text: str):
    """(x, y, r, code index) of every ``square`` line of a cover record."""
    out = []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "square":
            x, y, r = (Fraction(v) for v in parts[1:4])
            out.append((x, y, r, int(parts[4])))
    return out


def area2(poly) -> Fraction:
    """Twice the signed area of a vertex list."""
    s = Fraction(0)
    for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
        s += x1 * y2 - x2 * y1
    return s


def _clip(poly, inside, cross):
    out = []
    for p, q in zip(poly, poly[1:] + poly[:1]):
        if inside(p):
            out.append(p)
        if inside(p) != inside(q):
            out.append(cross(p, q))
    return out


def clip_to_square(poly, x, y, r):
    """Convex polygon cut down to the closed square of center (x, y) and
    half side r, one edge line at a time."""
    for axis, bound, keep_below in ((0, x - r, False), (0, x + r, True),
                                    (1, y - r, False), (1, y + r, True)):
        def inside(p, a=axis, b=bound, below=keep_below):
            return p[a] <= b if below else p[a] >= b

        def cross(p, q, a=axis, b=bound):
            t = (b - p[a]) / (q[a] - p[a])
            return tuple(b if k == a else p[k] + t * (q[k] - p[k])
                         for k in (0, 1))

        poly = _clip(poly, inside, cross)
        if not poly:
            break
    return poly


def cover_area_problems(target, squares):
    """The squares' pieces of the target add up to the whole target."""
    whole = abs(area2(list(target)))
    covered = Fraction(0)
    for x, y, r, _ in squares:
        piece = clip_to_square(list(target), x, y, r)
        if len(piece) >= 3:
            covered += abs(area2(piece))
    if covered != whole:
        return [f"squares cover area {covered / 2} of the target's "
                f"{whole / 2}"]
    return []


def overlap_problems(squares):
    """No two squares share interior points."""
    boxes = sorted((x - r, x + r, y - r, y + r) for x, y, r, _ in squares)
    problems = []
    for i, (ax0, ax1, ay0, ay1) in enumerate(boxes):
        for bx0, bx1, by0, by1 in boxes[i + 1:]:
            if bx0 >= ax1:
                break
            if by0 < ay1 and ay0 < by1:
                problems.append(f"squares at x {ax0}..{ax1}, y {ay0}..{ay1} "
                                f"and x {bx0}..{bx1}, y {by0}..{by1} overlap")
    return problems


def record_fields(result):
    """Every serialized field of a CoverResult, as strings, read from the
    object rather than from its text."""
    return {
        "target": [[str(x), str(y)] for x, y in result.target],
        "corpus_size": result.corpus_size,
        "precision": result.precision,
        "max_depth": result.max_depth,
        "max_depth_used": result.max_depth_used,
        "records": [[str(rec.square.x), str(rec.square.y),
                     str(rec.square.r), rec.code_index, str(rec.margin),
                     rec.precision] for rec in result.records],
        "failures": [[str(s.x), str(s.y), str(s.r)]
                     for s in result.failures],
    }


def round_trip_problems(text: str, fields, parse):
    """``parse(text)`` rebuilds the result the text was written from, and
    writing that again gives text that parses to an equal result."""
    try:
        parsed = parse(text)
    except ValueError as exc:
        return [f"cover record does not parse: {exc}"]
    problems = []
    if record_fields(parsed) != fields:
        problems.append("parsed cover differs from the computed one")
    if parse(parsed.to_text()) != parsed:
        problems.append("cover record does not re-parse to an equal result")
    return problems


def complete_problems(text: str):
    """The record claims a complete cover and lists no failures."""
    problems = []
    if any(line.startswith("failure ") for line in text.splitlines()):
        problems.append("cover lists uncovered squares")
    if "complete=yes" not in text.splitlines()[-1]:
        problems.append("cover summary is not complete=yes")
    return problems


def oracle_problems(squares, letters, closes):
    """The oracle finds a closed path of the certifying code at every
    square's center.  ``closes(x, y, code_index, letters)`` runs it."""
    problems = []
    for (x, y, _, i), pair in zip(squares, letters):
        if not closes(x, y, i, pair):
            problems.append(f"no closed path of code {i} ({pair}) at "
                            f"({x}, {y})")
    if len(letters) != len(squares):
        problems.append(f"{len(letters)} assignments for {len(squares)} "
                        f"squares")
    return problems


# find_orbit tries start points on grids of at most 1536 per side, so a
# band narrower than two steps of that grid may fall between them.
ORACLE_RESOLUTION = 2 / 1536


def narrow(check) -> bool:
    """A pass whose band the oracle's grid cannot be relied on to hit."""
    return check["verdict"] == "pass" and check["width"] < ORACLE_RESOLUTION


def band_problems(checks):
    """Each decided band verdict agrees with the oracle's search, except
    that a miss of a band too narrow for its grid is not held against it.
    A path found where the band test fails is always a problem."""
    problems = []
    for c in checks:
        if c["verdict"] not in ("pass", "fail"):
            problems.append(f"code {c['code']} at ({c['x']}, {c['y']}): "
                            f"verdict {c['verdict']}")
        elif narrow(c) and not c["orbit"]:
            continue
        elif (c["verdict"] == "pass") != c["orbit"]:
            problems.append(f"code {c['code']} at ({c['x']}, {c['y']}): "
                            f"band test says {c['verdict']}, oracle "
                            f"{'found' if c['orbit'] else 'found no'} path")
    return problems


def _mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def enclosure_problems(samples):
    """Each (kind, angle in degrees, interval) contains mpmath's value."""
    problems = []
    with mpmath.workdps(MP_DIGITS):
        for kind, angle, iv in samples:
            rad = _mpf(Fraction(angle)) * mpmath.pi / 180
            v = mpmath.sin(rad) if kind == "sin" else mpmath.cos(rad)
            if not _mpf(iv.lo) - MP_SLACK <= v <= _mpf(iv.hi) + MP_SLACK:
                problems.append(f"{kind}({angle} deg) = {mpmath.nstr(v, 20)} "
                                f"outside [{iv.lo}, {iv.hi}]")
    return problems
