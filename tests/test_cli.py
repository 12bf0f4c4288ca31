"""Command-line surface: output shapes, exit codes, determinism."""

import xml.dom.minidom

import pytest

from billiardpath.cli import main
from billiardpath.prover import CoverResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TINY_CORPUS = "OSO (3, 3) 1 1 1\n"


@pytest.fixture
def tiny_corpus(tmp_path):
    p = tmp_path / "tiny.txt"
    p.write_text(TINY_CORPUS)
    return str(p)


@pytest.fixture
def square_region(tmp_path):
    p = tmp_path / "region.txt"
    p.write_text("58,58 62,58 62,62 58,62\n")
    return str(p)


class TestClassify:
    def test_unstable_even(self, capsys):
        code, out, _ = run(capsys, "classify", "1", "2", "1", "2")
        assert code == 0
        assert "type: CNS" in out
        assert "line: x + y = 90" in out
        assert "theta: 2x + y - 90" in out

    def test_odd_stable(self, capsys):
        code, out, _ = run(capsys, "classify", "1", "1", "1")
        assert code == 0
        assert "type: OSO" in out
        assert "stability defect (dX, dY, dZ): 0 0 0" in out
        assert "theta: y" in out
        assert "polygon: (90, 0) (90, 90) (0, 90)" in out

    def test_even_non_palindromic(self, capsys):
        code, out, _ = run(capsys, "classify", "1", "1", "2", "1", "3", "2")
        assert code == 0
        assert "type: ONS" in out
        assert "line: 2x - y = 0" in out
        assert "theta:" not in out

    def test_shifted_line(self, capsys):
        code, out, _ = run(capsys, "classify", "1", "2", "1", "6")
        assert code == 0
        assert "line: x - y = -90" in out

    def test_single_argument_string(self, capsys):
        code, out, _ = run(capsys, "classify", "1 2 1 2")
        assert code == 0
        assert "type: CNS" in out

    def test_illegal_word_gets_trace(self, capsys):
        code, _, err = run(capsys, "classify", "1", "1", "2")
        assert code == 3
        assert "automaton rejects" in err
        assert "trace: xy -O-> yz -O-> zx -E-> xz" in err

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "classify", "1", "0")
        assert code == 3
        assert "positive" in err


class TestVerifyCorpus:
    def test_shipped_file_clean(self, capsys):
        code, out, _ = run(capsys, "verify-corpus")
        assert code == 0
        assert "checked 134 entries, 0 discrepancies" in out

    def test_mismatches_reported_with_line_numbers(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("OSO (3, 7) 1 3 3\n"
                     "OSO (3, 8) 1 3 3\n"
                     "CS (4, 6) 1 2 1 2\n"
                     "# comment\n"
                     "OSO (3, 4) 1 1 2\n")
        code, out, _ = run(capsys, "verify-corpus", "--corpus", str(p))
        assert code == 3
        assert f"{p}:2: declared sum 8, got 7" in out
        assert f"{p}:3: declared type CS, classified CNS" in out
        assert f"{p}:5: illegal code sequence" in out
        assert "automaton rejects" in out
        assert "checked 2 entries, 3 discrepancies" in out

    def test_verbose_lists_entries(self, capsys, tiny_corpus):
        code, out, _ = run(capsys, "verify-corpus", "--corpus", tiny_corpus,
                           "--verbose")
        assert code == 0
        assert "OK OSO (3, 3)" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify-corpus", "--corpus", "/nope/x")
        assert code == 3
        assert "error:" in err


class TestCertify:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "certify", "1 1 1",
                           "--at", "60,60", "--radius", "1/10")
        assert code == 0
        assert "region kind: band" in out
        assert "status: pass" in out
        assert "margin: 14755653/10000000" in out

    def test_fail_exits_2(self, capsys):
        code, out, _ = run(capsys, "certify", "1 1 1",
                           "--at", "30,20", "--radius", "1/10")
        assert code == 2
        assert "status: fail" in out

    def test_line_kind(self, capsys):
        code, out, _ = run(capsys, "certify", "1 2 1 2",
                           "--at", "30,60", "--radius", "1/2",
                           "--assignment", "ZX")
        assert code == 0
        assert "region kind: line" in out
        assert "status: pass" in out

    def test_low_precision_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["certify", "1 1 1", "--at", "60,60",
                  "--radius", "1/10", "--precision", "3"])
        assert info.value.code == 3
        assert "sound minimum" in capsys.readouterr().err

    def test_bad_assignment(self, capsys):
        code, _, err = run(capsys, "certify", "1 1 1",
                           "--at", "60,60", "--radius", "1/10",
                           "--assignment", "XQ")
        assert code == 3
        assert "assignment" in err


class TestCover:
    def test_single_record(self, capsys, tiny_corpus, square_region):
        code, out, _ = run(capsys, "cover", "--region", square_region,
                           "--corpus", tiny_corpus)
        assert code == 0
        assert "square 60 60 2 0 10113077/10000000 p7" in out
        assert "complete=yes" in out

    def test_output_file_round_trips(self, capsys, tiny_corpus,
                                     square_region, tmp_path):
        dest = tmp_path / "cover.txt"
        code, out, _ = run(capsys, "cover", "--region", square_region,
                           "--corpus", tiny_corpus, "-o", str(dest))
        assert code == 0
        result = CoverResult.parse(dest.read_text())
        assert result.complete
        assert result.square_count == 1

    def test_empty_corpus_incomplete(self, capsys, square_region, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        code, out, err = run(capsys, "cover", "--region", square_region,
                             "--corpus", str(empty))
        assert code == 2
        assert "complete=no" in out
        assert "uncovered squares" in err
        assert "center (60, 60) radius 2" in err

    def test_preset_region(self, capsys, tiny_corpus):
        code, out, _ = run(capsys, "cover", "--region", "acute-demo",
                           "--corpus", tiny_corpus)
        assert code == 0
        assert "complete=yes" in out

    def test_unknown_region(self, capsys):
        code, _, err = run(capsys, "cover", "--region", "nope")
        assert code == 3
        assert "neither a preset" in err

    def test_region_file_needs_pairs(self, capsys, tmp_path):
        bad = tmp_path / "r.txt"
        bad.write_text("1,2 3\n")
        code, _, err = run(capsys, "cover", "--region", str(bad))
        assert code == 3
        assert "expected x,y pairs" in err

    def test_svg_map(self, capsys, tiny_corpus, square_region, tmp_path):
        svg = tmp_path / "map.svg"
        code, out, _ = run(capsys, "cover", "--region", square_region,
                           "--corpus", tiny_corpus, "--svg", str(svg))
        assert code == 0
        doc = xml.dom.minidom.parse(str(svg))
        rects = doc.getElementsByTagName("rect")
        assert len(rects) == 2  # background plus the one certified square
        assert doc.getElementsByTagName("polygon")

    def test_deterministic(self, capsys, tiny_corpus, square_region):
        first = run(capsys, "cover", "--region", square_region,
                    "--corpus", tiny_corpus)
        second = run(capsys, "cover", "--region", square_region,
                     "--corpus", tiny_corpus)
        assert first == second


class TestTower:
    def test_orthic(self, capsys):
        code, out, _ = run(capsys, "tower", "1 1 1", "--at", "60,60")
        assert code == 0
        assert "triangle: x=60 y=60 z=60" in out
        assert "full-chain test: pass" in out
        assert "pruned band test: pass" in out
        assert "perpendicular line test: not applicable" in out

    def test_unstable_on_line(self, capsys):
        code, out, _ = run(capsys, "tower", "1 2 1 2", "--at", "30,60",
                           "--assignment", "ZX")
        assert code == 0
        assert "theta: 2x + y - 90 = 30.000000 deg" in out
        assert "perpendicular line test: pass" in out

    def test_svg(self, capsys, tmp_path):
        svg = tmp_path / "tower.svg"
        code, _, _ = run(capsys, "tower", "1 1 1", "--at", "60,60",
                         "--svg", str(svg))
        assert code == 0
        doc = xml.dom.minidom.parse(str(svg))
        assert doc.getElementsByTagName("line")
        assert doc.getElementsByTagName("circle")

    def test_degenerate_triangle(self, capsys):
        code, _, err = run(capsys, "tower", "1 1 1", "--at", "100,80")
        assert code == 3
        assert "degenerate" in err


class TestOrbitTrace:
    def test_orbit_found(self, capsys):
        code, out, _ = run(capsys, "orbit", "1 1 1", "--at", "60,60")
        assert code == 0
        assert "theta: 60.000000000 deg" in out
        assert "bounce word: 2 3 1" in out

    def test_orbit_absent(self, capsys):
        code, out, _ = run(capsys, "orbit", "1 1 1", "--at", "20,30")
        assert code == 2
        assert "no closed path" in out

    def test_orbit_seed_changes_nothing_material(self, capsys):
        a = run(capsys, "orbit", "2 2", "--at", "50,50", "--seed", "1")
        b = run(capsys, "orbit", "2 2", "--at", "50,50", "--seed", "9")
        assert a[0] == b[0] == 0
        # the found path may start elsewhere, the angle stays the same
        theta_a = [l for l in a[1].splitlines() if l.startswith("theta")]
        theta_b = [l for l in b[1].splitlines() if l.startswith("theta")]
        assert theta_a == theta_b

    def test_trace_word(self, capsys):
        code, out, _ = run(capsys, "trace", "--at", "60,60", "--side", "1",
                           "--offset", "1/2", "--angle", "60",
                           "--bounces", "6")
        assert code == 0
        assert "bounces (6): 2 3 1 2 3 1" in out

    def test_trace_outward_ray(self, capsys):
        code, _, err = run(capsys, "trace", "--at", "60,60", "--side", "1",
                           "--offset", "1/2", "--angle", "270")
        assert code == 3
        assert "does not enter" in err


class TestParser:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 3

    def test_bad_flag_value(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["cover", "--region", "acute-demo", "--max-depth", "0"])
        assert info.value.code == 3

    def test_cover_has_no_threads_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["cover", "--region", "acute-demo", "--threads", "2"])
        assert info.value.code == 3
        assert "--threads" in capsys.readouterr().err
