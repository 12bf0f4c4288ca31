"""Each benchmark check passes on a correct output and catches a corrupted
one; the tracer's self times add up and its patches come off again."""

import sys
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from billiardpath import prover  # noqa: E402
from billiardpath.numeric import (Interval, enclose_cos,  # noqa: E402
                                  enclose_sin)
from billiardpath.oracle import assignment_start, find_orbit  # noqa: E402
from billiardpath.sequences import CodeSequence, assign_angles  # noqa: E402
from billiardpath.tower import Triangle  # noqa: E402
from tracer import Tracer  # noqa: E402

BOX = [(F(0), F(0)), (F(2), F(0)), (F(2), F(2)), (F(0), F(2))]
QUARTERS = [(F(1, 2), F(1, 2), F(1, 2), 0), (F(3, 2), F(1, 2), F(1, 2), 0),
            (F(1, 2), F(3, 2), F(1, 2), 0), (F(3, 2), F(3, 2), F(1, 2), 0)]
DEMO = [(58, 58), (62, 58), (62, 62), (58, 62)]
CODES = [CodeSequence.parse("1 1 1"), CodeSequence.parse("1 3 3")]


def _demo_cover():
    return prover.cover(DEMO, CODES, precision=7)


def test_area_check_catches_a_dropped_square():
    assert checks.cover_area_problems(BOX, QUARTERS) == []
    assert checks.cover_area_problems(BOX, QUARTERS[1:])


def test_area_check_counts_only_the_target_part_of_a_square():
    # one square twice the target's size still covers it exactly once
    assert checks.cover_area_problems(BOX, [(F(1), F(1), F(2), 0)]) == []
    triangle = [(F(0), F(0)), (F(2), F(0)), (F(0), F(2))]
    assert checks.cover_area_problems(triangle, QUARTERS) == []
    assert checks.cover_area_problems(triangle, QUARTERS[:2])


def test_overlap_check_catches_an_overlapping_square():
    assert checks.overlap_problems(QUARTERS) == []
    assert checks.overlap_problems(QUARTERS + [(F(1), F(1), F(1, 4), 0)])
    assert checks.overlap_problems(QUARTERS + [QUARTERS[0]])


def test_round_trip_check_catches_an_altered_record():
    result = _demo_cover()
    text = result.to_text()
    fields = checks.record_fields(result)
    parse = prover.CoverResult.parse
    assert checks.round_trip_problems(text, fields, parse) == []
    moved = text.replace("square 60 60 2 0", "square 60 60 2 1")
    assert checks.round_trip_problems(moved, fields, parse)
    assert checks.round_trip_problems(text.replace("squares=1", "squares=2"),
                                      fields, parse)


def test_complete_check_catches_a_failure_line():
    text = _demo_cover().to_text()
    assert checks.complete_problems(text) == []
    lines = text.splitlines()
    lines.insert(-1, "failure 60 60 2")
    lines[-1] = lines[-1].replace("complete=yes", "complete=no")
    assert len(checks.complete_problems("\n".join(lines) + "\n")) == 2


def _closes(x, y, i, letters):
    code = CODES[i]
    asg = assign_angles(code, letters[0], letters[1])
    return find_orbit(Triangle(x, y), code,
                      starts=[assignment_start(code, asg)]) is not None


def test_oracle_check_catches_a_wrong_code():
    result = _demo_cover()
    squares = checks.read_squares(result.to_text())
    letters = [rec.letters for rec in result.records]
    assert checks.oracle_problems(squares, letters, _closes) == []
    wrong = [(x, y, r, 1) for x, y, r, _ in squares]
    assert checks.oracle_problems(wrong, letters, _closes)
    assert checks.oracle_problems(squares, [], _closes)


def test_band_check_catches_a_flipped_verdict():
    good = [{"code": 0, "x": "60", "y": "60", "verdict": "pass",
             "width": 0.1, "orbit": True},
            {"code": 1, "x": "20", "y": "30", "verdict": "fail",
             "width": None, "orbit": False}]
    assert checks.band_problems(good) == []
    assert checks.band_problems([dict(good[0], verdict="fail", width=None)])
    assert checks.band_problems([dict(good[0], orbit=False)])
    assert checks.band_problems([dict(good[1], orbit=True)])
    assert checks.band_problems([dict(good[0], verdict="indeterminate")])


def test_band_check_excuses_only_misses_of_bands_below_the_oracle_grid():
    thin = {"code": 70, "x": "103", "y": "53", "verdict": "pass",
            "width": checks.ORACLE_RESOLUTION / 4, "orbit": False}
    assert checks.band_problems([thin]) == []
    assert checks.band_problems(
        [dict(thin, width=checks.ORACLE_RESOLUTION)])


def test_enclosure_check_catches_a_shrunken_interval():
    samples = []
    for angle in (F(100, 3), F(-7777, 13), F(30), F(45)):
        for precision in (7, 30):
            samples.append(("sin", angle, enclose_sin(angle, precision)))
            samples.append(("cos", angle, enclose_cos(angle, precision)))
    assert checks.enclosure_problems(samples) == []
    kind, angle, iv = samples[0]
    for shrunk in (Interval(iv.lo, iv.lo), Interval(iv.hi, iv.hi)):
        assert checks.enclosure_problems([(kind, angle, shrunk)])


def test_tracer_self_times_add_up_and_patches_come_off():
    original = prover.certify_square
    tracer = Tracer(base_precision=7)
    tracer.install()
    try:
        assert prover.certify_square is not original
        root = tracer.open("bench.op")
        prover.cover(DEMO, CODES, precision=7)
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert prover.certify_square is original
    summary = tracer.summary(root)
    assert summary["calls"]["prover.quadtree"] == 1
    assert summary["calls"]["prover.certify"] >= 1
    assert tracer.counts["prover.certify_pass"] == 1
    assert abs(sum(summary["layer_self_s"].values())
               - summary["root_s"]) < 1e-9
