"""One benchmark operation in a fresh interpreter, as a command-line user
pays for it: import, corpus load, input generation, then the timed call.

    python3 perfbench/worker.py '{"op": "cover", "workload": "cover-deep",
                                  "seed": 1, "round": 0, "trace": null}'

``op`` is ``setup`` (set-up only), ``cover`` or ``round`` (round number
``round`` of band-oracle checks).  ``trace`` is null or the path the spans
are written to.  The last line of standard output is one JSON object with
the set-up and operation times, peak memory and the raw outputs that
``run.py`` checks.
"""

from __future__ import annotations

import json
import math
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from workloads import (COVERS, ESCALATION, PRECISION,  # noqa: E402
                       band_round, triangle_in)


def import_program():
    """Import billiardpath from this checkout's ``src``, never from
    anywhere else on the path."""
    sys.path.insert(0, str(SRC))
    import billiardpath
    where = Path(billiardpath.__file__).resolve().parent
    if where != SRC / "billiardpath":
        raise SystemExit(f"imported billiardpath from {where}, "
                         f"not from {SRC}")


def make_inputs(spec):
    """Cover: (target, codes).  Band round: (corpus index, code, triangle
    seed) per check."""
    from billiardpath.corpus import load_default_corpus

    entries = load_default_corpus()
    if spec["workload"] in COVERS:
        target, indices = COVERS[spec["workload"]]
        return list(target), [entries[i].code for i in indices]
    return [(i, entries[i].code, subseed)
            for i, subseed in band_round(spec["seed"], spec["round"])]


def run_cover(inputs):
    from billiardpath import prover

    target, codes = inputs
    t0 = perf_counter()
    result = prover.cover(target, codes, precision=PRECISION, threads=1)
    op_s = perf_counter() - t0
    return op_s, result


def run_round(inputs, seed):
    from billiardpath import classify, oracle, sequences, tower

    t0 = perf_counter()
    checks, escalations = [], 0
    for i, code, subseed in inputs:
        asg = sequences.all_assignments(code)[0]
        poly = classify.angle_bounding_polygon(code, asg)
        x, y = triangle_in(poly.vertices, subseed)
        verdict, width = "indeterminate", None
        for precision in ESCALATION:
            t = tower.unfold(code, asg, x, y=y, precision=precision)
            v = tower.test_II(t)
            if v.status != "indeterminate":
                verdict = v.status
                break
            escalations += 1
        if verdict == "pass":
            width = band_width(v.margin, t.shooting_vector())
        orbit = oracle.find_orbit(tower.Triangle(x, y), code, seed=seed,
                                  starts=[oracle.assignment_start(code, asg)])
        checks.append({"code": i, "x": str(x), "y": str(y),
                       "verdict": verdict, "width": width,
                       "orbit": orbit is not None})
    op_s = perf_counter() - t0
    return op_s, (checks, escalations)


def band_width(margin, shooting):
    """Lower bound on the width of a passing band, in the units of the
    oracle's triangle (side lengths at most 1).

    Scores are cross products with the shooting vector in the tower's
    doubled coordinates, so a score gap over twice the vector's length is
    a distance between parallel paths.
    """
    norm = math.hypot(*(max(abs(iv.lo), abs(iv.hi)) for iv in shooting))
    return float(margin) / (2 * norm)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv) -> int:
    spec = json.loads(argv[1])
    t0 = perf_counter()
    import_program()
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer(PRECISION)
        tracer.install()
    inputs = make_inputs(spec)
    out = {"setup_s": perf_counter() - t0}
    if spec["op"] != "setup":
        root = tracer.open("bench.op") if tracer else None
        if spec["op"] == "cover":
            op_s, result = run_cover(inputs)
        else:
            op_s, (checks, escalations) = run_round(inputs, spec["seed"])
        if tracer:
            tracer.close(root)
        out["op_s"] = op_s
    out["rss_mb"] = _peak_rss_mb()
    if spec["op"] == "cover":
        from checks import record_fields
        out.update(text=result.to_text(), fields=record_fields(result),
                   letters=[rec.letters for rec in result.records])
    elif spec["op"] == "round":
        from billiardpath import sequences, tower
        # size of the evidence behind the verdicts: key-point scores
        # compared, fixed by the codes (the towers are cached by now)
        key_points = sum(
            len(tower.pruned_key_points(tower.symbolic_tower(
                code, sequences.all_assignments(code)[0])))
            for _, code, _ in inputs)
        out.update(checks=checks, escalations=escalations,
                   key_points=key_points)
    if tracer:
        tracer.uninstall()
        out["trace"] = tracer.summary(root)
        out["trace"].update(corpus_load=tracer.totals("corpus.load"),
                            counts=tracer.counts,
                            span_cost=tracer.span_cost())
        tracer.write(spec["trace"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
