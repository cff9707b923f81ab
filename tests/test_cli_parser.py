"""The command-line parser of `qshuffle.cli` against the argparse parser it
replaced (`tests/cli_oracle.py`).

Both must accept a command line with the same command, TYPE and option
values, or both reject it with `UsageError`.  The corpus is every command
line of the stdout digests and of README.md, a list of edge cases, and
generated lines that mix full and shortened option names, the `=` form,
repeats, `--`, values that start with `-`, bad ints and choices, and missing
or conflicting options.  Help tokens are left out: argparse orders help
against errors in ways not worth copying, and tests/test_cli.py covers help.

One difference is deliberate: argparse 3.11 drops an explicit `--` value,
so `--weight=--` gives an empty list (and `scan A2 --max-height=--` then
fails with a traceback); `qshuffle` keeps the value `--`.  The generated
lines leave that form out and `test_an_explicit_double_dash_is_a_value`
pins it.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cli_oracle import build_parser
from qshuffle import cli
from qshuffle.cli import UsageError
from test_output_digests import DIGESTS

ORACLE = build_parser()
README = Path(__file__).resolve().parent.parent / "README.md"


def outcome(parse, argv):
    try:
        return vars(parse(list(argv)))
    except UsageError:
        return UsageError


def agree(argv):
    mine, reference = outcome(cli._parse, argv), outcome(ORACLE.parse_args, argv)
    assert mine == reference, argv


def readme_lines():
    return [line.split()[1:] for line in README.read_text().splitlines() if line.startswith("qshuffle ")]


def test_readme_has_command_lines():
    assert len(readme_lines()) >= 10


@pytest.mark.parametrize("line", [*DIGESTS, *(" ".join(argv) for argv in readme_lines())])
def test_documented_command_lines(line):
    assert outcome(cli._parse, line.split()) is not UsageError
    agree(line.split())


EDGE_CASES = [
    [],
    ["frobnicate", "A2"],
    ["--", "roots", "A2"],
    ["--order", "1,2", "roots", "A2"],
    ["roots"],
    ["roots", "A2", "B2"],
    ["roots", "A2", "--format", "text", "B2"],
    ["roots", "--format", "json", "A2"],
    ["roots", "--form", "json", "A2"],
    ["roots", "A2", "--f=json"],
    ["roots", "A2", "--format", "xml"],
    ["roots", "A2", "--format"],
    ["roots", "A2", "--format", "--order", "1,2"],
    ["roots", "A2", "--order=-1,2"],
    ["roots", "A2", "--order", "-1,2"],
    ["roots", "A2", "--order", "-1"],
    ["roots", "A2", "--order", "-1 2"],
    ["roots", "A2", "--order", "-1.5"],
    ["roots", "A2", "--order", "-.5"],
    ["roots", "A2", "--order", "-1.", ],
    ["roots", "A2", "--order", "-1\n"],
    ["roots", "A2", "--order", "-٣"],
    ["roots", "A2", "--order", "-"],
    ["roots", "A2", "--order", ""],
    ["roots", "A2", "--order", "1", "--order", "2,1"],
    ["roots", "A2", "--bogus"],
    ["roots", "A2", "-x"],
    ["roots", "A2", "---"],
    ["roots", "A2", "--=1"],
    ["roots", "-1"],
    ["roots", "-"],
    ["roots", ""],
    ["roots", "-- "],
    ["roots", "--", "A2"],
    ["roots", "A2", "--"],
    ["roots", "--", "--"],
    ["roots", "--", "-x"],
    ["roots", "--", "A2", "B2"],
    ["roots", "--", "A2", "--"],
    ["roots", "A2", "--", "B2"],
    ["roots", "--"],
    ["roots", "--format", "json", "--", "A2"],
    ["roots", "--format", "json", "A2", "--"],
    ["roots", "A2", "--format", "json", "--"],
    ["roots", "A2", "--", "--format", "json"],
    ["roots", "--format", "--", "A2"],
    ["good-words", "A2", "--weight", "1,1"],
    ["good-words", "A2", "--w", "1,1"],
    ["good-words", "A2", "--weight", "-1,2"],
    ["good-words", "A2", "--weight=-1,2"],
    ["good-words", "A2", "--weight=", "--weight", "1,1"],
    ["good-words", "A2"],
    ["good-words", "--weight", "1,1"],
    ["scan", "A2", "--max-height", "2"],
    ["scan", "A2", "--max", "2"],
    ["scan", "A2", "--m", "2"],
    ["scan", "A2", "--max-height", "x"],
    ["scan", "A2", "--max-height", "-1"],
    ["scan", "A2", "--max-height", " 4 "],
    ["scan", "A2", "--max-height", "1_0"],
    ["scan", "A2", "--max-height", "+3"],
    ["scan", "A2", "--max-height", "2", "--max-height", "x"],
    ["scan", "A2", "--max-height", "x", "--max-height", "2"],
    ["scan", "A2", "--max-height", "2", "--check", "reality"],
    ["scan", "A2", "--max-height", "2", "--check", "real"],
    ["scan", "A2", "--max-height", "2", "--timing"],
    ["scan", "A2", "--max-height", "2", "--t"],
    ["scan", "A2", "--max-height", "2", "--timing=1"],
    ["scan", "A2", "--max-height", "2", "--timing="],
    ["scan", "A2", "--max-height", "2", "--timing", "--timing"],
    ["scan", "A2", "--max-height", "2", "--weight", "1,1"],
    ["character", "A3", "--skew", "2,1/0", "--shift", "2"],
    ["character", "A3", "--skew", "2,1/0", "--shift", "-2"],
    ["character", "A3", "--sk", "2,1/0", "--shift=2"],
    ["character", "A3", "--s", "2,1/0"],
    ["character", "A3", "--shi", "2,1"],
    ["character", "A3", "--shif", "2"],
    ["character", "A3", "--shift", "2"],
    ["character", "A3", "--shifte", "2,1"],
    ["character", "A3", "--skew", "2,1/0", "--shifted", "2,1"],
    ["character", "A3", "--skew", "2,1/0", "--skew", "3/1"],
    ["character", "A3", "--skew", ""],
    ["character", "A3", "--skew="],
    ["character", "A3", "--order", "--s"],
    ["character", "A3"],
    ["is-real", "A2", "--weight", "1,1", "--format", "json"],
]


@pytest.mark.parametrize("argv", EDGE_CASES, ids=repr)
def test_edge_cases(argv):
    agree(argv)


# Each option with values it accepts, then values one option or another
# rejects or reads in an unusual way.
GOOD = {
    "--order": ["1,2", "2,1"], "--format": ["text", "json"], "--weight": ["1,1", "2,1"],
    "--max-height": ["2", "3"], "--check": ["positivity", "reality"], "--timing": [],
    "--skew": ["2,1/0"], "--shifted": ["2,1"], "--shift": ["2", "-2"],
}
ODD = [
    "0", "-1", "+3", " 4", "1_0", "x", "", "-1.5", "-.5", "٣", "-1\n", "2.0", "xml", "real",
    "-", "-1,2", "-x", "x y", "-x y", "--order", "A2",
]
TYPES = ["A2", "B2", "G2", "-1", "", "-", "--", "x y", "-x", "-1.5"]
NOISE = ["--", "--", "--", "A2", "--bogus", "-x", "-1", "--=1", "---"]


def option_tokens(rng, name):
    """One option, full or shortened, with a value in the same token, in the
    next one, or none (a value for a flag only now and then)."""
    spelled = name if rng.random() < 0.4 else name[: rng.randrange(3, len(name) + 1)]
    if name == "--timing":
        return [spelled] if rng.random() < 0.8 else [f"{spelled}={rng.choice(['', '1'])}"]
    value = rng.choice(GOOD[name]) if rng.random() < 0.7 else rng.choice(ODD)
    form = rng.random()
    if form < 0.05:
        return [spelled]
    return [f"{spelled}={value}"] if form < 0.5 and value != "--" else [spelled, value]


def command_line(rng):
    """A command with its required options and TYPE, each left out now and
    then, a few more options of it or of any command, and perhaps `--` or a
    stray token, in any order."""
    command = rng.choice([*cli._COMMANDS, "roots", "scan", "character", "frobnicate"])
    options = list(cli._COMMANDS[command][1]) if command in cli._COMMANDS else list(GOOD)
    required = [name for name in options if name in ("--weight", "--max-height")]
    if command == "character":
        required = [rng.choice(["--skew", "--shifted"])]
    names = [name for name in required if rng.random() < 0.9]
    names += rng.choices(options * 4 + list(GOOD), k=rng.randrange(4))
    groups = [option_tokens(rng, name) for name in names]
    rng.shuffle(groups)
    if rng.random() < 0.9:
        # TYPE last, beside a `--`, now and then: the one place `--` is accepted
        kind = rng.random()
        type_group = ["A2" if rng.random() < 0.5 else rng.choice(TYPES)]
        if kind < 0.1:
            groups.append(["--", *type_group])
        elif kind < 0.2:
            groups.append([*type_group, "--"])
        else:
            groups.insert(rng.randrange(len(groups) + 1), type_group)
    tokens = [token for group in groups for token in group]
    if rng.random() < 0.3:
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(NOISE))
    return [command, *tokens]


@settings(max_examples=2000, deadline=None)
@given(st.randoms(use_true_random=True))
def test_generated_command_lines(rng):
    agree(command_line(rng))


def option_names(argv):
    """The options a command line names, each as often as it is given."""
    heads = [token.partition("=")[0] for token in argv[1:] if token[:2] == "--"]
    matches = [[name for name in GOOD if name == head] or [name for name in GOOD if name.startswith(head)] for head in heads]
    return [found[0] for found in matches if len(found) == 1]


def test_generated_lines_cover_the_grammar():
    lines = [command_line(random.Random(seed)) for seed in range(2000)]
    accepted = [argv for argv in lines if outcome(cli._parse, argv) is not UsageError]
    features = {
        "shortened": lambda argv: any(t[:2] == "--" and t.partition("=")[0] not in (*GOOD, "--") for t in argv),
        "=": lambda argv: any(t[:2] == "--" and "=" in t for t in argv),
        "repeat": lambda argv: len(set(option_names(argv))) < len(option_names(argv)),
        "--": lambda argv: "--" in argv[1:],
        "negative": lambda argv: any(t[:1] == "-" and t[1:2].isdigit() for t in argv),
    }
    for name, has in features.items():
        assert sum(map(has, accepted)) >= 20, name
    rejected = [" ".join(argv) for argv in lines if argv not in accepted]
    for fragment in ("--max-height x", "--check real", "--skew", "--shifted"):
        assert any(fragment in line for line in rejected), fragment
    assert 0.1 < len(accepted) / len(lines) < 0.9


def test_an_explicit_double_dash_is_a_value():
    assert cli._parse(["good-words", "A2", "--weight=--"]).weight == "--"
    with pytest.raises(UsageError, match="invalid int value: '--'"):
        cli._parse(["scan", "A2", "--max=--"])
