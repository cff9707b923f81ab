import json
import sys

import pytest

from qshuffle import basis, cartan, shuffle, words
from qshuffle.cli import main
from qshuffle.laurent import LaurentPoly
from qshuffle.shuffle import ShuffleElt


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_g2(capsys):
    code, out, _ = run(capsys, "roots", "G2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "roots G2 order=1,2"
    assert len(lines) == 7
    assert any("root=3,2" in line and "l=w[1,1,2,1,2]" in line for line in lines)


def test_roots_counts(capsys):
    code, out, _ = run(capsys, "roots", "A2")
    assert len(out.strip().splitlines()) == 4
    code, out, _ = run(capsys, "roots", "B3")
    assert len(out.strip().splitlines()) == 10  # header + nine roots


def test_output_is_deterministic(capsys):
    first = run(capsys, "dual-canonical", "G2", "--weight", "3,2")
    second = run(capsys, "dual-canonical", "G2", "--weight", "3,2")
    assert first == second
    assert first[0] == 0


def test_dual_canonical_b2(capsys):
    code, out, _ = run(capsys, "dual-canonical", "B2", "--weight", "2,1")
    assert code == 0
    assert "w[1,1,2]: (q + q^-1) * w[1,1,2]" in out
    assert "w[2,1,1]: (q + q^-1) * w[2,1,1]" in out


def test_dual_canonical_a2(capsys):
    code, out, _ = run(capsys, "dual-canonical", "A2", "--weight", "1,1")
    assert code == 0
    assert "w[1,2]: w[1,2]" in out
    assert "w[2,1]: w[2,1]" in out


def test_dual_pbw_and_expand(capsys):
    code, out, _ = run(capsys, "dual-pbw", "G2", "--weight", "2,1")
    assert code == 0 and "w[1,1,2]" in out
    code, out, _ = run(capsys, "expand", "G2", "--weight", "3,2")
    assert code == 0
    assert "w[1,2,1,2,1]: w[1,2,1,2,1] -> 1; w[1,2,1,1,2] -> -q^3 - q; w[1,1,2,1,2] -> q^2" in out


def test_good_words(capsys):
    code, out, _ = run(capsys, "good-words", "A2", "--weight", "1,1")
    assert code == 0
    assert "w[1,2] = w[1,2]" in out
    assert "w[2,1] = w[2] w[1]" in out


def test_json_roundtrip(capsys):
    code, out, _ = run(capsys, "dual-canonical", "B2", "--weight", "2,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "dual-canonical"
    assert data["weight"] == [2, 1]
    datum = cartan.parse("B2")
    for entry in data["dual_canonical"]:
        elt = ShuffleElt.from_json(datum, entry["element"])
        kappa = LaurentPoly.from_json(entry["kappa"])
        assert elt.terms[tuple(entry["good_word"])] == kappa


def test_scan_json(capsys):
    code, out, err = run(capsys, "scan", "A2", "--max-height", "3", "--check", "invariants", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["total_violations"] == 0
    assert "elapsed" not in data  # timing only with --timing
    assert "elapsed" in err


def test_scan_text(capsys):
    code, out, err = run(capsys, "scan", "B2", "--max-height", "3", "--check", "reality")
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("total weights=")
    assert "violations=0" in out.strip().splitlines()[-1]


def test_character_match(capsys):
    code, out, _ = run(capsys, "character", "B2", "--shifted", "2,1")
    assert code == 0
    assert "good word: w[1,2,1]" in out
    assert out.strip().endswith("MATCH")
    code, out, _ = run(capsys, "character", "A3", "--skew", "2,1/0", "--shift", "2")
    assert code == 0
    assert "w[2,3,1]" in out and out.strip().endswith("MATCH")
    code, out, _ = run(capsys, "character", "B3", "--shifted", "2,1")
    assert code == 0 and out.strip().endswith("MATCH")


def test_is_real(capsys):
    code, out, _ = run(capsys, "is-real", "A2", "--weight", "1,1")
    assert code == 0
    assert "w[1,2]: real" in out and "w[2,1]: real" in out


def test_order_flag(capsys):
    code, out, _ = run(capsys, "roots", "G2", "--order", "2,1")
    assert code == 0
    assert out.splitlines()[0] == "roots G2 order=2,1"
    assert "l=w[2,1,1]" in out


def test_usage_errors(capsys):
    assert run(capsys, "roots", "H9")[0] == 1
    assert run(capsys, "dual-canonical", "A2", "--weight", "1,2,3")[0] == 1
    assert run(capsys, "dual-canonical", "A2", "--weight", "-1,2")[0] == 1
    assert run(capsys, "character", "A3", "--skew", "2,1")[0] == 1  # missing --shift
    assert run(capsys, "character", "A3", "--skew", "9,9/1", "--shift", "1")[0] == 1
    assert run(capsys, "character", "B2", "--shifted", "2,1", "--shift", "5")[0] == 1
    assert run(capsys, "scan", "A2", "--max-height", "0")[0] == 1
    assert run(capsys, "roots", "A2", "--order", "1,1")[0] == 1
    # argparse-level failures (unknown subcommand, bad choice) also exit 1
    assert run(capsys, "frobnicate", "A2")[0] == 1
    assert run(capsys, "scan", "A2", "--max-height", "2", "--check", "bogus")[0] == 1


def test_input_errors_found_past_argument_parsing_exit_1(capsys):
    assert run(capsys, "roots", "A2", "--order", "1,x")[0] == 1
    # under this order the shape's word w[2,3,1] is not good
    assert run(capsys, "character", "A3", "--skew", "2,1/0", "--shift", "2", "--order", "3,2,1")[0] == 1


def _raising(error):
    def broken(*args):
        raise error("broken invariant")

    return broken


@pytest.mark.parametrize(
    "owner, name, replacement, message",
    [
        pytest.param(
            basis, "scan", _raising(shuffle.HomogeneityError), "HomogeneityError: broken invariant",
            id="HomogeneityError",
        ),
        pytest.param(
            basis, "scan", _raising(basis.StraighteningFailure), "StraighteningFailure: broken invariant",
            id="StraighteningFailure",
        ),
        # with no Lyndon words the root -> Lyndon word map cannot be built,
        # a branch correct code never reaches
        pytest.param(
            words, "is_lyndon", lambda w: False, "TheoryViolation: no Lyndon cover found for root",
            id="no-lyndon-cover",
        ),
    ],
)
def test_internal_errors_exit_2_and_name_the_class(capsys, monkeypatch, owner, name, replacement, message):
    monkeypatch.setattr(owner, name, replacement)
    code, out, err = run(capsys, "scan", "A2", "--max-height", "2")
    assert code == 2 and out == ""
    assert message in err


def test_good_words_of_a_weight_far_above_the_recursion_limit(capsys):
    code, out, _ = run(capsys, "good-words", "A2", "--weight", "1200,0")
    assert code == 0
    assert out.splitlines()[1] == f"{words.format_word((1,) * 1200)} = w[1]^1200"


def test_recursion_errors_exit_2(capsys, monkeypatch):
    # the shuffle kernel recurses once per uncached letter: the dual PBW
    # vector at w[1,2,1^39] shuffles w[1^39] with words of E*_12, so with an
    # empty word-pair cache and the limit 30 frames above this one, A2 weight
    # 40,1 reaches it the way a word of about 1000 letters reaches the default
    monkeypatch.setattr(shuffle, "_CACHE", {})
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        code, out, err = run(capsys, "dual-pbw", "A2", "--weight", "40,1")
    finally:
        sys.setrecursionlimit(limit)
    assert code == 2 and out == ""
    assert err.startswith("internal error: RecursionError: ")
