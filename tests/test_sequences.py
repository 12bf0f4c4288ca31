"""Side and code sequence algebra, legality, and angle assignment."""

import itertools
import random

import pytest

from billiardpath.classify import is_stable, stability_defect
from billiardpath.corpus import load_default_corpus
from billiardpath.sequences import (
    ASSIGNMENT_ORDER,
    AlphabetSequence,
    CodeSequence,
    SideSequence,
    all_assignments,
    assign_angles,
    automaton_legal,
    code_to_side,
    extra_standard_form_side,
    is_legal_side_sequence,
    label_walk,
    reduces_to_empty,
    side_to_code,
    standard_form_code,
    standard_form_side,
    third_symbol,
)

import _reference

S = SideSequence.parse
C = CodeSequence.parse


def test_side_legality():
    assert is_legal_side_sequence(S("213132313"))
    assert not is_legal_side_sequence(S("1212"))
    assert not is_legal_side_sequence(S("1123"))
    assert not is_legal_side_sequence(S("1231"))  # seam repeat
    with pytest.raises(ValueError):
        SideSequence([])


def test_standard_form_side():
    assert str(standard_form_side(S("213132313"))) == "123132313"
    assert str(standard_form_side(S("123"))) == "123"
    assert str(standard_form_side(S("132"))) == "123"


def test_extra_standard_form_side():
    assert str(extra_standard_form_side(S("3132"))) == "1213"
    assert str(extra_standard_form_side(S("123"))) == "123"
    assert str(extra_standard_form_side(S("213132313"))) == "121231213"
    with pytest.raises(ValueError):
        standard_form_side(S("1212"))


def test_side_to_code():
    code, angles = side_to_code(S("123231323"))
    assert str(code) == "1 3 2 2 1"
    assert angles == ("y", "z", "x", "z", "x")
    code, angles = side_to_code(S("123"))
    assert str(code) == "1 1 1"
    assert angles == ("y", "z", "x")
    code, angles = side_to_code(S("1213"))
    assert str(code) == "2 2"
    assert angles == ("y", "x")


def test_code_to_side():
    assert str(code_to_side(C("1 3 2 2 1"), (1, 2))) == "123231323"
    assert str(code_to_side(C("1 1 1"), (1, 2))) == "123"
    assert str(code_to_side(C("2 2"), (1, 2))) == "1213"
    with pytest.raises(ValueError):
        code_to_side(C("1 1 1 1"), (1, 2))
    with pytest.raises(ValueError):
        code_to_side(C("3"), (1, 2))


def test_standard_form_code():
    assert str(standard_form_code(C("1 1 3 2 2"))) == "1 1 2 2 3"
    assert str(standard_form_code(C("1 1 1"))) == "1 1 1"
    assert str(standard_form_code(C("2 3 1 3 5 1 1 2"))) == "1 1 2 2 3 1 3 5"


def test_standard_form_idempotent_and_invariant():
    rng = random.Random(11)
    for _ in range(200):
        k = rng.randrange(2, 9)
        c = CodeSequence([rng.randrange(1, 7) for _ in range(k)])
        sf = standard_form_code(c)
        assert standard_form_code(sf) == sf
        assert standard_form_code(c.rotated(rng.randrange(k))) == sf
        assert standard_form_code(c.reversed()) == sf


def test_round_trip_all_start_pairs():
    rng = random.Random(5)
    seen = 0
    while seen < 150:
        k = rng.randrange(2, 9)
        c = CodeSequence([rng.randrange(1, 7) for _ in range(k)])
        if not c.is_legal():
            continue
        seen += 1
        for start in ((1, 2), (2, 1), (2, 3), (3, 1)):
            c2, _ = side_to_code(code_to_side(c, start))
            assert c2 == c


def test_parity_invariant():
    rng = random.Random(17)
    seen = 0
    while seen < 200:
        k = rng.randrange(2, 9)
        c = CodeSequence([rng.randrange(1, 7) for _ in range(k)])
        if not c.is_legal():
            continue
        seen += 1
        assert sum(1 for v in c if v % 2 == 0) % 2 == 0
        assert len(c) % 2 == c.total() % 2


def test_automaton_examples():
    assert automaton_legal(AlphabetSequence("OOEEO"))
    assert automaton_legal(AlphabetSequence("OOO"))
    assert not automaton_legal(AlphabetSequence("O"))
    assert automaton_legal(AlphabetSequence("EE"))
    assert not automaton_legal(AlphabetSequence("EOE"))


def test_reduction_examples():
    assert reduces_to_empty(AlphabetSequence("OOEEO"))
    assert reduces_to_empty(AlphabetSequence("OOO"))
    assert not reduces_to_empty(AlphabetSequence("O"))
    assert reduces_to_empty(AlphabetSequence("OEOOEO"))


def test_automaton_matches_reduction_short_words():
    # the exhaustive length-12 sweep runs with the acceptance suite; this is
    # the quick version
    for n in range(1, 9):
        for w in itertools.product("OE", repeat=n):
            alpha = AlphabetSequence("".join(w))
            assert automaton_legal(alpha) == reduces_to_empty(alpha), alpha


def test_alphabet_of_code():
    assert str(C("1 1 2 2 3").alphabet()) == "OOEEO"


def test_automaton_matches_expansion_legality():
    rng = random.Random(23)
    for _ in range(800):
        k = rng.randrange(2, 9)
        c = CodeSequence([rng.randrange(1, 7) for _ in range(k)])
        assert c.is_legal() == automaton_legal(c.alphabet()), c


def test_assign_angles_examples():
    a = assign_angles(C("1 3 3 1 3 3"), "X", "Y")
    assert a.top_row() == ["X", "Z", "Y"]
    assert a.bottom_row() == ["Y", "X", "Z"]
    a = assign_angles(C("1 2 1 6"), "Y", "Z")
    assert a.top_row() == ["Y", "Y"]
    assert a.bottom_row() == ["Z", "X"]
    a = assign_angles(C("2 2"), "X", "Y")
    assert a.top_row() == ["X"]
    assert a.bottom_row() == ["Y"]
    a = assign_angles(C("1 1 2 2 5"), "Z", "Y")
    assert a.top_row() == ["Z", "X", "X"]
    assert a.bottom_row() == ["Y", "Y"]


def test_assign_angles_rule_consistency():
    rng = random.Random(31)
    seen = 0
    while seen < 100:
        k = rng.randrange(2, 9)
        c = CodeSequence([rng.randrange(1, 7) for _ in range(k)])
        if not c.is_legal():
            continue
        seen += 1
        asgs = all_assignments(c)
        assert len(asgs) == 6
        for a in asgs:
            for i in range(1, k + 1):
                nxt = c.codes[i % k]
                lhs = a.symbol(i + 2)
                if nxt % 2 == 0:
                    assert lhs == a.symbol(i)
                else:
                    assert lhs == third_symbol(a.symbol(i), a.symbol(i + 1))


def test_assign_angles_rejects_inconsistent():
    with pytest.raises(ValueError):
        assign_angles(C("1 1 1 1"), "X", "Y")
    with pytest.raises(ValueError):
        assign_angles(C("1 1 1"), "X", "X")


def test_third_symbol_table():
    for a, b in _reference.PAIRS:
        assert third_symbol(a, b) == _reference.third(a, b)
    assert [(a, b) for a, b, _ in ASSIGNMENT_ORDER] == _reference.PAIRS


def relabeling_codes():
    """Every corpus code and 2400 seeded codes, most of them illegal;
    lengths from 1 (a single run) to 12."""
    codes = [e.code for e in load_default_corpus()]
    rng = random.Random(23)
    for _ in range(2400):
        k = rng.randrange(1, 13)
        codes.append(CodeSequence([rng.randrange(1, 10) for _ in range(k)]))
    return codes


def test_assignments_relabel_one_walk():
    # the six assignments are the walk's labels read through the six
    # symbol orders, or none at all; each pair's walk on letters, and the
    # message it rejects with, agree with assign_angles
    legal = illegal = 0
    for code in relabeling_codes():
        try:
            labels = label_walk(code)
        except ValueError as exc:
            why = str(exc)
            labels = None
        got = all_assignments(code)
        assert got == _reference.assignments(code), code
        if labels is None:
            illegal += 1
            assert got == []
            for first, second in _reference.PAIRS:
                for walk in (_reference.walk_symbols, assign_angles):
                    with pytest.raises(ValueError) as exc:
                        walk(code, first, second)
                    assert str(exc.value) == why
            continue
        legal += 1
        assert got == [assign_angles(code, a, b) for a, b in _reference.PAIRS]
        for asg, symbols in zip(got, ASSIGNMENT_ORDER):
            assert asg.symbols == tuple(symbols[i] for i in labels)
            assert stability_defect(code, asg) == \
                _reference.defect(code, asg), (code, asg)
        assert is_stable(code) == (_reference.defect(code, got[0])
                                   == (0, 0, 0))
    assert legal > 400 and illegal > 1000


def test_parse_and_format():
    assert str(C("1 3 3")) == "1 3 3"
    assert str(S("1213")) == "1213"
    assert C("1 2 1 6").minimal_period() == 4
    assert C("1 2 1 2").minimal_period() == 2
    assert C("2 2 2 2").minimal_period() == 1
