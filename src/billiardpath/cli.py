"""Command-line front end binding the whole toolchain.

Subcommands classify code sequences, verify corpus files, certify single
squares, run quadtree covers over angle-plane regions (optionally drawing
an SVG map), unfold towers at concrete triangles, and find closed paths
with the floating-point oracle.

Every subcommand is deterministic for fixed flags; ``--seed`` only picks
where inside a periodic band the oracle's checked start lies.  Exit
status: 0 on success and complete covers, 2 when a requested cover or
certificate does not close, 3 for input errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from fractions import Fraction

from .classify import (angle_bounding_polygon, canonical_unstable_line,
                       classify_code, is_stable, solve_theta,
                       stability_defect)
from .corpus import (DEFAULT_CORPUS, default_corpus_text, load_corpus,
                     load_default_corpus, parse_corpus_line)
from .numeric import MIN_PRECISION
from .oracle import RayState, find_orbit, trace
from .prover import (DEFAULT_MAX_DEPTH, PRESETS, Square, certify_square,
                     cover, region_system)
from .sequences import CodeSequence, assign_angles, automaton_trace, \
    form_degrees
from .tower import (BLUE, FanAngleError, ShapeError, Triangle, test_I,
                    test_II, test_III, unfold)


# --- argument helpers -------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract reserves 2 for
    incomplete covers, so input errors are remapped to 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _point(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected x,y: {text!r}")
    return _fraction(parts[0]), _fraction(parts[1])


def _precision(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < MIN_PRECISION:
        raise argparse.ArgumentTypeError(
            f"precision below the sound minimum {MIN_PRECISION}: {value}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {value}")
    return value


class _InputError(Exception):
    """Carries a user-facing message to the exit-3 path."""


def _code_from_args(parts) -> CodeSequence:
    try:
        code = CodeSequence.parse(" ".join(parts))
    except ValueError as exc:
        raise _InputError(str(exc))
    if not code.is_legal():
        raise _InputError(_rejection_report(code))
    return code


def _rejection_report(code: CodeSequence) -> str:
    alpha = code.alphabet()
    walk = automaton_trace(alpha)
    steps = [walk[0]]
    for ch, state in zip(alpha.letters, walk[1:]):
        steps.append(f"-{ch}-> {state}")
    return ("not a closed path word (automaton rejects)\n"
            f"  letter word: {alpha.letters}\n"
            f"  trace: {' '.join(steps)}\n"
            f"  ends at {walk[-1]!r}, needs {walk[0]!r}")


def _assignment(code: CodeSequence, letters):
    if letters is None:
        return assign_angles(code)
    if len(letters) != 2 or any(ch not in "XYZ" for ch in letters.upper()):
        raise _InputError(f"assignment must be two of X, Y, Z: {letters!r}")
    try:
        return assign_angles(code, letters[0].upper(), letters[1].upper())
    except ValueError as exc:
        raise _InputError(str(exc))


def _check_writable(path: str) -> None:
    """Fail before a long run when ``path`` cannot be opened for writing;
    a file the probe creates is removed again."""
    existed = os.path.exists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc.strerror or exc}")
    if not existed:
        os.remove(path)


@contextmanager
def _writing(path: str):
    """Turn a failure to write ``path`` into an input error."""
    try:
        yield
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc.strerror or exc}")
    print(f"wrote {path}")


def _read_text(path: str) -> str:
    """The UTF-8 text of a file named on the command line."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise _InputError(f"cannot read {path}: not UTF-8 text ({exc})")


def _triangle(at) -> Triangle:
    try:
        return Triangle(*at)
    except ValueError as exc:
        raise _InputError(str(exc))


# --- formatting -------------------------------------------------------

def _sum_str(parts) -> str:
    """(coefficient, name) pairs as a signed sum; an empty name marks a
    constant."""
    out = []
    for coeff, name in parts:
        mag = abs(coeff)
        body = f"{mag}{name}" if mag != 1 or not name else name
        if not out:
            out.append(f"-{body}" if coeff < 0 else body)
        else:
            out.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(out)


def _form_str(form) -> str:
    """Human form of an integer angle triple (ax, ay, q), degrees implied."""
    ax, ay, q = form
    parts = [(k, name) for k, name in ((ax, "x"), (ay, "y")) if k]
    if q or not parts:
        parts.append((90 * q, ""))
    return _sum_str(parts)


def _line_str(line) -> str:
    a, b, c = line
    left = _sum_str((k, name) for k, name in ((a, "x"), (b, "y")) if k)
    return f"{left or '0'} = {90 * c}"


def _margin_str(margin) -> str:
    if margin is None:
        return "none"
    return f"{margin} (~{float(margin):.6g})"


def _interval_str(iv) -> str:
    return f"[{float(iv.lo):.9f}, {float(iv.hi):.9f}]"


# --- classify ---------------------------------------------------------

def cmd_classify(args) -> int:
    code = _code_from_args(args.code)
    print(f"code: {' '.join(str(v) for v in code.codes)}")
    kind = classify_code(code)
    print(f"type: {kind}")
    if is_stable(code):
        asg = assign_angles(code)
        line = None
    else:
        line, asg = canonical_unstable_line(code)
    print(f"assignment: {asg.symbol(1)}{asg.symbol(2)}")
    d = stability_defect(code, asg)
    print(f"stability defect (dX, dY, dZ): {d[0]} {d[1]} {d[2]}")
    if line is not None:
        print(f"line: {_line_str(line)}")
    theta = solve_theta(code, asg)
    if theta is not None:
        print(f"theta: {_form_str(theta)}")
    poly = angle_bounding_polygon(code, asg)
    if poly.is_empty:
        print("polygon: empty")
    else:
        print("polygon: " + " ".join(f"({v[0]}, {v[1]})"
                                     for v in poly.vertices))
    return 0


# --- verify-corpus ----------------------------------------------------

def cmd_verify_corpus(args) -> int:
    if args.corpus is None:
        name, text = DEFAULT_CORPUS, default_corpus_text()
    else:
        name, text = str(args.corpus), _read_text(args.corpus)
    checked = problems = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{name}:{lineno}"
        try:
            entry = parse_corpus_line(line, where=where)
        except ValueError as exc:
            problems += 1
            print(exc)
            if "illegal code sequence" in str(exc):
                try:
                    code = CodeSequence.parse(line.partition(")")[2])
                except ValueError:
                    pass
                else:
                    report = _rejection_report(code).replace("\n", "\n  ")
                    print(f"  {report}")
            continue
        checked += 1
        got = classify_code(entry.code)
        if got != entry.kind:
            problems += 1
            print(f"{where}: declared type {entry.kind}, classified {got}")
        elif args.verbose:
            print(f"{where}: OK {entry.kind} ({entry.length}, {entry.total})")
    print(f"checked {checked} entries, {problems} discrepancies")
    return 0 if problems == 0 else 3


# --- certify ----------------------------------------------------------

def cmd_certify(args) -> int:
    code = _code_from_args(args.code)
    asg = _assignment(code, args.assignment) if args.assignment else None
    system = region_system(code, asg)
    try:
        square = Square(*args.at, args.radius)
    except ValueError as exc:
        raise _InputError(str(exc))
    cert = certify_square(system, square, args.precision)
    print(f"code: {' '.join(str(v) for v in code.codes)}  "
          f"assignment: {system.asg.symbol(1)}{system.asg.symbol(2)}")
    print(f"region kind: {system.kind}")
    print(f"square: center ({square.x}, {square.y}), radius {square.r}")
    print(f"status: {cert.status}")
    print(f"margin: {_margin_str(cert.margin)}")
    if cert.note:
        print(f"note: {cert.note}")
    return 0 if cert.passed else 2


# --- cover ------------------------------------------------------------

def _load_region(spec: str):
    if spec in PRESETS:
        return list(PRESETS[spec])
    if not os.path.isfile(spec):
        raise _InputError(
            f"region {spec!r} is neither a preset "
            f"({', '.join(sorted(PRESETS))}) nor a readable file")
    text = _read_text(spec)
    points = []
    for chunk in text.split():
        parts = chunk.split(",")
        if len(parts) != 2:
            raise _InputError(f"{spec}: expected x,y pairs, got {chunk!r}")
        try:
            points.append((Fraction(parts[0]), Fraction(parts[1])))
        except (ValueError, ZeroDivisionError):
            raise _InputError(f"{spec}: not a rational pair: {chunk!r}")
    if len(points) < 3:
        raise _InputError(f"{spec}: a region needs at least 3 vertices")
    return points


def cmd_cover(args) -> int:
    target = _load_region(args.region)
    if args.corpus is None:
        corpus = load_default_corpus()
    else:
        try:
            corpus = load_corpus(args.corpus)
        except (OSError, ValueError) as exc:
            raise _InputError(str(exc))
    for path in (args.output, args.svg):
        if path:
            _check_writable(path)
    try:
        result = cover(target, corpus, precision=args.precision,
                       max_depth=args.max_depth)
    except ValueError as exc:
        raise _InputError(str(exc))
    if args.output:
        with _writing(args.output):
            result.write(args.output)
    else:
        sys.stdout.write(result.to_text())
    if args.svg:
        with _writing(args.svg), open(args.svg, "w", encoding="utf-8") as f:
            f.write(_cover_svg(result))
    margin = result.min_margin
    print(f"squares={result.square_count} failures={len(result.failures)} "
          f"min-margin={'none' if margin is None else margin} "
          f"complete={'yes' if result.complete else 'no'}")
    if not result.complete:
        print("incomplete cover; uncovered squares:", file=sys.stderr)
        for sq in result.failures:
            print(f"  center ({sq.x}, {sq.y}) radius {sq.r}",
                  file=sys.stderr)
        return 2
    return 0


# --- tower ------------------------------------------------------------

def cmd_tower(args) -> int:
    code = _code_from_args(args.code)
    asg = _assignment(code, args.assignment)
    tri = _triangle(args.at)
    tower = unfold(code, asg, tri, precision=args.precision)
    sym = tower.sym
    print(f"code: {' '.join(str(v) for v in code.codes)}  "
          f"assignment: {asg.symbol(1)}{asg.symbol(2)}")
    print(f"triangle: x={tri.x} y={tri.y} z={tri.z}")
    copies = sum(f.count for f in sym.fans)
    print(f"chain: {len(sym.centers)} centers, {len(sym.fans)} fans, "
          f"{copies} reflected copies")
    if sym.theta is not None:
        print(f"theta: {_form_str(sym.theta)} "
              f"= {float(form_degrees(sym.theta, tri.x, tri.y)):.6f} deg")
    c, d = tower.shooting_vector()
    print(f"shooting vector: c {_interval_str(c)}, d {_interval_str(d)}")
    for name, fn in (("full-chain test", test_I),
                     ("pruned band test", test_II),
                     ("perpendicular line test", test_III)):
        try:
            v = fn(tower)
        except (ShapeError, FanAngleError, ValueError) as exc:
            print(f"{name}: not applicable ({exc})")
            continue
        extra = "" if v.margin is None else \
            f", margin ~{float(v.margin):.6g}" \
            f", {v.blue_count} blue x {v.black_count} black"
        print(f"{name}: {v.status}{extra}")
    if args.svg:
        with _writing(args.svg), open(args.svg, "w", encoding="utf-8") as f:
            f.write(_tower_svg(tower))
    return 0


# --- orbit / trace ----------------------------------------------------

def cmd_orbit(args) -> int:
    code = _code_from_args(args.code)
    tri = _triangle(args.at)
    try:
        got = find_orbit(tri, code, seed=args.seed)
    except ValueError as exc:
        raise _InputError(str(exc))
    if got is None:
        print("no closed path found")
        return 2
    print(f"start: side {got.start.side}, t={got.start.t:.9f} "
          f"(labels {got.start_pair[0]} {got.start_pair[1]})")
    print(f"direction: {got.start.angle:.9f} deg")
    print(f"theta: {got.theta:.9f} deg")
    print(f"closure residual: {got.residual:.3e}")
    bounced = trace(tri, got.start, code.total())
    word = " ".join(str(s) for s in bounced.sides)
    print(f"bounce word: {word}")
    return 0


def cmd_trace(args) -> int:
    tri = _triangle(args.at)
    try:
        state = RayState(args.side, float(args.offset), float(args.angle))
        result = trace(tri, state, args.bounces)
    except ValueError as exc:
        raise _InputError(str(exc))
    except OverflowError:
        raise _InputError("offset or angle outside the float range")
    print(f"start: side {state.side}, t={state.t:.9f}, "
          f"angle {state.angle:.9f} deg")
    word = " ".join(str(s) for s in result.sides)
    print(f"bounces ({len(result.sides)}): {word or '(none)'}")
    if result.vertex_hit:
        print("stopped at a corner")
    if result.points:
        px, py = result.points[-1]
        print(f"last point: ({px:.9f}, {py:.9f})")
    return 0


# --- SVG rendering ----------------------------------------------------

_SVG_HEAD = ('<svg xmlns="http://www.w3.org/2000/svg" '
             'viewBox="{vb}" width="{w}" height="{h}">\n'
             '<rect x="{x0}" y="{y0}" width="{bw}" height="{bh}" '
             'fill="white"/>\n')


def _code_color(index: int) -> str:
    # golden-angle hue walk keeps neighboring indices distinguishable
    return f"hsl({(index * 137.508) % 360:.1f}, 65%, 72%)"


def _cover_svg(result) -> str:
    xs = [p[0] for p in result.target]
    ys = [p[1] for p in result.target]
    for rec in result.records:
        xs += [rec.square.x - rec.square.r, rec.square.x + rec.square.r]
        ys += [rec.square.y - rec.square.r, rec.square.y + rec.square.r]
    for sq in result.failures:
        xs += [sq.x - sq.r, sq.x + sq.r]
        ys += [sq.y - sq.r, sq.y + sq.r]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = max(x1 - x0, y1 - y0) / 40 or Fraction(1)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    top = y1  # SVG y grows downward; flip about the viewport top

    def fy(v):
        return float(top - v + y0)

    scale = 900 / float(x1 - x0)
    out = [_SVG_HEAD.format(
        vb=f"{float(x0)} {float(y0)} {float(x1 - x0)} {float(y1 - y0)}",
        w=900, h=max(1, round(float(y1 - y0) * scale)),
        x0=float(x0), y0=float(y0),
        bw=float(x1 - x0), bh=float(y1 - y0))]
    stroke = float(x1 - x0) / 3000
    for rec in result.records:
        sq = rec.square
        out.append(
            f'<rect x="{float(sq.x - sq.r):.6g}" '
            f'y="{fy(sq.y + sq.r):.6g}" '
            f'width="{float(2 * sq.r):.6g}" height="{float(2 * sq.r):.6g}" '
            f'fill="{_code_color(rec.code_index)}" '
            f'stroke="#555" stroke-width="{stroke:.6g}"/>\n')
    for sq in result.failures:
        out.append(
            f'<rect x="{float(sq.x - sq.r):.6g}" '
            f'y="{fy(sq.y + sq.r):.6g}" '
            f'width="{float(2 * sq.r):.6g}" height="{float(2 * sq.r):.6g}" '
            f'fill="none" stroke="#d00" '
            f'stroke-width="{3 * stroke:.6g}"/>\n')
    pts = " ".join(f"{float(px):.6g},{fy(py):.6g}"
                   for px, py in result.target)
    out.append(f'<polygon points="{pts}" fill="none" stroke="#000" '
               f'stroke-width="{2 * stroke:.6g}"/>\n')
    out.append("</svg>\n")
    return "".join(out)


def _tower_svg(tower) -> str:
    def mid(point):
        xi, yi = tower.locate(point)
        return (float((xi.lo + xi.hi) / 2), float((yi.lo + yi.hi) / 2))

    edges = []
    pts = {}
    for a, b, c in tower.sym.triangles():
        pa, pb, pc = mid(a), mid(b), mid(c)
        edges += [(pa, pb), (pa, pc), (pb, pc)]
        for p, q in ((a, pa), (b, pb), (c, pc)):
            pts[id(p)] = (p, q)
    xs = [p[0] for e in edges for p in e]
    ys = [p[1] for e in edges for p in e]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = max(x1 - x0, y1 - y0, 1e-9) / 20
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    top = y1

    def fy(v):
        return top - v + y0

    scale = 900 / (x1 - x0)
    out = [_SVG_HEAD.format(
        vb=f"{x0:.6g} {y0:.6g} {x1 - x0:.6g} {y1 - y0:.6g}",
        w=900, h=max(1, round((y1 - y0) * scale)),
        x0=f"{x0:.6g}", y0=f"{y0:.6g}",
        bw=f"{x1 - x0:.6g}", bh=f"{y1 - y0:.6g}")]
    stroke = (x1 - x0) / 1500
    for (ax, ay), (bx, by) in edges:
        out.append(f'<line x1="{ax:.6g}" y1="{fy(ay):.6g}" '
                   f'x2="{bx:.6g}" y2="{fy(by):.6g}" '
                   f'stroke="#999" stroke-width="{stroke:.6g}"/>\n')
    # shooting direction from the first center
    civ, div = tower.shooting_vector()
    cm, dm = float((civ.lo + civ.hi) / 2), float((div.lo + div.hi) / 2)
    norm = math.hypot(cm, dm)
    if norm > 0:
        ox, oy = mid(tower.sym.centers[0])
        span = (x1 - x0) / 3
        out.append(f'<line x1="{ox:.6g}" y1="{fy(oy):.6g}" '
                   f'x2="{ox + span * cm / norm:.6g}" '
                   f'y2="{fy(oy + span * dm / norm):.6g}" '
                   f'stroke="#d62728" stroke-width="{2 * stroke:.6g}"/>\n')
    radius = 2.5 * stroke
    for point, (px, py) in pts.values():
        color = "#1f77b4" if point.color == BLUE else "#111"
        out.append(f'<circle cx="{px:.6g}" cy="{fy(py):.6g}" '
                   f'r="{radius:.6g}" fill="{color}"/>\n')
    out.append("</svg>\n")
    return "".join(out)


# --- parser -----------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="billiardpath",
                     description="Certified periodic paths in triangles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify",
                       help="type, defect, line, theta, and polygon "
                            "of a code")
    p.add_argument("code", nargs="+", help="code numbers, e.g. 1 2 1 2")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify-corpus",
                       help="check every line of a corpus file")
    p.add_argument("--corpus", help="corpus file (default: shipped list)")
    p.add_argument("--verbose", action="store_true",
                   help="also print one line per good entry")
    p.set_defaults(func=cmd_verify_corpus)

    p = sub.add_parser("certify",
                       help="interval certificate for one square")
    p.add_argument("code", nargs="+")
    p.add_argument("--at", type=_point, required=True, metavar="X,Y",
                   help="square center in degrees")
    p.add_argument("--radius", type=_fraction, required=True, metavar="R")
    p.add_argument("--assignment", metavar="LL",
                   help="two angle letters, e.g. XY (default: first legal)")
    p.add_argument("--precision", type=_precision, default=MIN_PRECISION)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("cover",
                       help="cover a region with certified squares")
    p.add_argument("--region", required=True,
                   help=f"preset ({', '.join(sorted(PRESETS))}) or a file "
                        f"of x,y vertices")
    p.add_argument("--corpus", help="corpus file (default: shipped list)")
    p.add_argument("--precision", type=_precision, default=MIN_PRECISION)
    p.add_argument("--max-depth", type=_positive_int,
                   default=DEFAULT_MAX_DEPTH)
    p.add_argument("--output", "-o", help="write the cover record here "
                                          "instead of stdout")
    p.add_argument("--svg", help="draw the cover map to this file")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("tower",
                       help="unfold a code at a triangle and run the "
                            "periodicity tests")
    p.add_argument("code", nargs="+")
    p.add_argument("--at", type=_point, required=True, metavar="X,Y")
    p.add_argument("--assignment", metavar="LL")
    p.add_argument("--precision", type=_precision, default=MIN_PRECISION)
    p.add_argument("--svg", help="draw the unfolded chain to this file")
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser("orbit",
                       help="find a closed path numerically")
    p.add_argument("code", nargs="+")
    p.add_argument("--at", type=_point, required=True, metavar="X,Y")
    p.add_argument("--seed", type=int, default=0,
                   help="picks where inside the band the start lies")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("trace",
                       help="bounce a single ray and print its side word")
    p.add_argument("--at", type=_point, required=True, metavar="X,Y")
    p.add_argument("--side", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--offset", type=_fraction, required=True,
                   help="start position along the side, in [0, 1]")
    p.add_argument("--angle", type=_fraction, required=True,
                   help="absolute direction in degrees")
    p.add_argument("--bounces", type=_positive_int, default=30)
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
