"""Benchmark runner: one workload, one seed, one result line.

    python3 perfbench/run.py --workload cover-deep --seed 1 --seconds 30 \\
        --trace 0

Every operation runs in a fresh interpreter (``worker.py``), so each one
pays import, corpus load and cold caches as a command-line user does.
Outputs are checked afterwards, outside every timed section.  The last
line of standard output is the result object; a copy goes to
``perfbench/results/``.  With ``--trace 1`` the operations run traced:
the result holds per-layer figures instead of end-to-end ones, and each
operation's spans are written next to it.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from worker import import_program  # noqa: E402
from workloads import (BAND_CODES, COVERS, ESCALATION,  # noqa: E402
                       WORKLOADS)

SETUP_SAMPLES = 5       # set-ups measured per run, at the least
CHILD_TIMEOUT = 170     # seconds; one operation never needs that long
ENCLOSURE_SAMPLES = 60  # random angles per run, on top of the triangles'


class WorkerError(RuntimeError):
    pass


def run_worker(spec) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise WorkerError(f"worker {spec} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- checks -------------------------------------------------------------

def check_cover(workload, out, seed):
    from billiardpath.corpus import load_default_corpus
    from billiardpath.oracle import assignment_start, find_orbit
    from billiardpath.prover import CoverResult
    from billiardpath.sequences import assign_angles
    from billiardpath.tower import Triangle

    target, indices = COVERS[workload]
    entries = load_default_corpus()
    codes = [entries[i].code for i in indices]
    text = out["text"]
    squares = checks.read_squares(text)

    def closes(x, y, i, letters):
        code = codes[i]
        asg = assign_angles(code, letters[0], letters[1])
        return find_orbit(Triangle(x, y), code, seed=seed,
                          starts=[assignment_start(code, asg)]) is not None

    return (checks.complete_problems(text)
            + checks.round_trip_problems(text, out["fields"],
                                         CoverResult.parse)
            + checks.cover_area_problems(target, squares)
            + checks.overlap_problems(squares)
            + checks.oracle_problems(squares, out["letters"], closes))


def enclosure_samples(seed, outs):
    """Seeded sin/cos arguments: random rationals over a wide range, and
    small integer combinations of each checked triangle's angles."""
    from billiardpath.numeric import enclose_cos, enclose_sin

    rng = random.Random(f"enclosures:{seed}")
    angles = [Fraction(rng.randrange(-10 ** 6, 10 ** 6),
                       rng.randrange(1, 997))
              for _ in range(ENCLOSURE_SAMPLES)]
    for out in outs:
        for c in out["checks"]:
            x, y = Fraction(c["x"]), Fraction(c["y"])
            angles.append(rng.randrange(-6, 7) * x + rng.randrange(-6, 7) * y)
    samples = []
    for angle in angles:
        precision = rng.choice(ESCALATION)
        samples.append(("sin", angle, enclose_sin(angle, precision)))
        samples.append(("cos", angle, enclose_cos(angle, precision)))
    return samples


def self_time_problems(traced):
    """Layer self times of each traced operation add up to its duration."""
    problems = []
    for o in traced:
        t = o["trace"]
        got = sum(t["layer_self_s"].values())
        if abs(got - t["root_s"]) > 1e-6 * max(1.0, t["root_s"]):
            problems.append(f"layer self times sum to {got}, operation "
                            f"took {t['root_s']}")
    return problems


# --- metrics ------------------------------------------------------------

def end_to_end(workload, outs, setups):
    op_s = [o["op_s"] for o in outs]
    if workload in COVERS:
        squares = [len(checks.read_squares(o["text"])) for o in outs]
        size = statistics.median_low(squares)
        rate = statistics.median(n / t for n, t in zip(squares, op_s))
    else:
        size = statistics.median_low(o["key_points"] for o in outs)
        rate = statistics.median(
            sum(c["verdict"] != "indeterminate" for c in o["checks"]) / t
            for o, t in zip(outs, op_s))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "cover_s": (statistics.median(op_s), "s"),
        "cover_squares": (size, "count"),
        "checks_per_s": (rate, "1/s"),
        "peak_rss_mb": (max(o["rss_mb"] for o in outs), "MB"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


# per-layer metric: (span name, figure, unit); figures are per operation
SPAN_METRICS = {
    "classify.polygon_calls": ("classify.polygon", "calls", "count"),
    "classify.polygon_s": ("classify.polygon", "total_s", "s"),
    "prover.certify_calls": ("prover.certify", "calls", "count"),
    "prover.certify_s": ("prover.certify", "total_s", "s"),
    "prover.region_system_calls": ("prover.region_system", "calls", "count"),
    "prover.region_system_s": ("prover.region_system", "total_s", "s"),
    "prover.quadtree_self_s": ("prover.quadtree", "self_s", "s"),
    "geometry.clip_calls": ("geometry.clip", "calls", "count"),
    "geometry.clip_s": ("geometry.clip", "total_s", "s"),
    "numeric.enclosure_calls": ("numeric.enclosure", "calls", "count"),
    "numeric.enclosure_s": ("numeric.enclosure", "total_s", "s"),
    "numeric.trigpoly_eval_calls": ("numeric.trigpoly_eval", "calls",
                                    "count"),
    "numeric.trigpoly_eval_s": ("numeric.trigpoly_eval", "total_s", "s"),
    "numeric.simplify_calls": ("numeric.simplify", "calls", "count"),
    "numeric.simplify_s": ("numeric.simplify", "total_s", "s"),
    "tower.symbolic_builds": ("tower.symbolic_build", "calls", "count"),
    "tower.symbolic_calls": ("tower.symbolic_tower", "calls", "count"),
    "tower.symbolic_build_s": ("tower.symbolic_build", "total_s", "s"),
    "tower.band_test_calls": ("tower.band_test", "calls", "count"),
    "tower.band_test_s": ("tower.band_test", "total_s", "s"),
    "oracle.find_orbit_calls": ("oracle.find_orbit", "calls", "count"),
    "oracle.find_orbit_s": ("oracle.find_orbit", "total_s", "s"),
    "oracle.trace_calls": ("oracle.trace", "calls", "count"),
    "sequences.assignments_calls": ("sequences.assignments", "calls",
                                    "count"),
}

# per-layer ratio: (outcome count, its base: a count or a span's calls)
RATIO_METRICS = {
    "prover.certify_pass_ratio": ("prover.certify_pass", "prover.certify"),
    "prover.retry_pass_ratio": ("prover.retry_pass", "prover.retry_calls"),
    "oracle.orbit_found_ratio": ("oracle.orbit_found", "oracle.find_orbit"),
}


def per_layer(traced):
    """Per-operation means of the traced runs' span figures, outcome
    ratios, layer self times and the tracing overhead."""
    n = len(traced)
    sums: dict = {}
    for o in traced:
        t = o["trace"]
        for figure in ("calls", "total_s", "self_s", "layer_self_s",
                       "counts"):
            into = sums.setdefault(figure, {})
            for name, v in t[figure].items():
                into[name] = into.get(name, 0) + v
    counts = dict(sums["calls"], **sums["counts"])
    m = {}
    for metric, (span, figure, unit) in SPAN_METRICS.items():
        m[metric] = (sums[figure].get(span, 0) / n, unit)
    m["prover.retry_calls"] = (counts.get("prover.retry_calls", 0) / n,
                               "count")
    m["tower.precision_escalations"] = (
        sum(o.get("escalations", 0) for o in traced) / n, "count")
    m["oracle.narrow_passes"] = (
        sum(checks.narrow(c) for o in traced for c in o.get("checks", ()))
        / n, "count")
    m["corpus.load_s"] = (sum(o["trace"]["corpus_load"][1]
                              for o in traced) / n, "s")
    for metric, (num, den) in RATIO_METRICS.items():
        m[metric] = (_ratio(counts.get(num, 0), counts.get(den, 0)), "ratio")
    for layer, v in sums["layer_self_s"].items():
        m[f"{layer}.self_s"] = (v / n, "s")
    # Tracing overhead: every span inside the operation costs what one
    # traced call of an empty function costs over a plain call.
    spans = sum(sum(o["trace"]["calls"].values()) for o in traced)
    overhead = sum(sum(o["trace"]["calls"].values()) * o["trace"]["span_cost"]
                   for o in traced)
    traced_s = sum(o["op_s"] for o in traced)
    m["trace.op_s"] = (traced_s / n, "s")
    m["trace.spans"] = (spans / n, "count")
    m["trace.overhead_ratio"] = (_ratio(overhead, traced_s - overhead),
                                 "ratio")
    return m


# --- main ---------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "billiardpath" / "__init__.py").is_file():
        print(f"no billiardpath sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import_program()
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    op = "cover" if args.workload in COVERS else "round"
    per_op = 1 if op == "cover" else len(BAND_CODES)

    # Whole operations only, none started that would end past --seconds
    # going by the length of the one before, and always at least one.
    outs = []
    attempted = failed = 0
    start = last = monotonic()
    k = 0
    while k == 0 or 2 * monotonic() - last - start <= args.seconds:
        last = monotonic()
        spans = RESULTS / f"spans-{tag}-{k}.jsonl"
        attempted += per_op
        try:
            outs.append(run_worker({
                "op": op, "workload": args.workload, "seed": args.seed,
                "round": k, "trace": str(spans) if args.trace else None}))
        except (WorkerError, subprocess.TimeoutExpired) as exc:
            print(exc, file=sys.stderr)
            failed += per_op
        k += 1
    if not outs:
        print("every operation failed", file=sys.stderr)
        return 1

    problems = []
    if op == "cover":
        seen = {}
        for o in outs:
            if o["text"] not in seen:
                seen[o["text"]] = check_cover(args.workload, o, args.seed)
            problems += seen[o["text"]]
        if len(seen) > 1:
            problems.append(f"{len(seen)} different covers of one input")
    else:
        for o in outs:
            problems += checks.band_problems(o["checks"])
        problems += checks.enclosure_problems(
            enclosure_samples(args.seed, outs))
    if args.trace:
        problems += self_time_problems(outs)
        metrics = per_layer(outs)
    else:
        setups = [o["setup_s"] for o in outs]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_worker({
                "op": "setup", "workload": args.workload, "seed": args.seed,
                "round": 0, "trace": None})["setup_s"])
        metrics = end_to_end(args.workload, outs, setups)
    for p in problems[:20]:
        print("CHECK FAILED:", p, file=sys.stderr)

    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": v, "unit": unit}
                          for name, (v, unit) in metrics.items()}}
    line = json.dumps(result)
    (RESULTS / f"{tag}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
