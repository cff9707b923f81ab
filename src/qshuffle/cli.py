"""Command-line front end.

Subcommands: roots, good-words, dual-pbw, dual-canonical, expand, scan,
character, is-real.  Output is deterministic (collections are sorted before
rendering and timing goes to stderr), in plain text or JSON.

The command comes first; TYPE and the options follow in any order.  An
option takes its value as `--name value` or `--name=value`, and may be
shortened to any prefix that names no other option of the command.  A value
that starts with `-` must use the `=` form unless it reads as a negative
number, such as `--shift -1`.  `--` ends the options: TYPE may stand just
before it or be the one token after it.  The last value of a repeated option
wins.  One table lists each command's options and drives both parsing and
`-h`.  A command line means what it meant to the argparse parser this module
once used, which tests/cli_oracle.py keeps as the reference, except that an
explicit `--name=--` gives the value `--`.

Exit codes: 0 success, 1 usage error, 2 internal error (exactness violation or
broken invariant), 141 stdout closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import sys

from . import basis, cartan
from .laurent import TheoryViolation
from .words import format_word

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: a running process never loads collections
    from collections.abc import Sequence


class UsageError(Exception):
    pass


class _Args:
    """A parsed command line: its command, TYPE and one attribute per option."""

    def __init__(self, **values):
        self.__dict__.update(values)


# The options each command takes besides TYPE, as name -> (kind, required,
# default, help).  A kind is str or int (a value, converted by calling the
# kind), a tuple (a value that must be one of its entries) or bool (a flag,
# True when given).  `required` is True, False or _ONE_OF: exactly one of a
# command's _ONE_OF options must be given.
_ONE_OF = "one of"
_HELP = ("-h", "--help")
_COMMON = {
    "--order": (str, False, None, "total order on simple roots, e.g. 2,1"),
    "--format": (("text", "json"), False, "text", "output format"),
}
_WEIGHT = {**_COMMON, "--weight": (str, True, None, "weight over the simple roots, e.g. 2,1")}
_SCAN = {
    **_COMMON,
    "--max-height": (int, True, None, "largest height of a scanned weight"),
    "--check": (tuple(sorted(basis._SCAN_CHECKS)), False, "positivity", "property checked at each weight"),
    "--timing": (bool, False, False, "include elapsed seconds in JSON output"),
}
_CHARACTER = {
    **_COMMON,
    "--skew": (str, _ONE_OF, None, "skew shape lam/mu, e.g. 5,5,3/3,1"),
    "--shifted": (str, _ONE_OF, None, "shifted shape lam/mu of strict partitions"),
    "--shift": (int, False, None, "content shift for skew shapes"),
}


def _negative_number(token: str) -> bool:
    """Whether `-digits` or `-digits.digits` spells the token, a final
    newline allowed, as argparse's `^-\\d+$|^-\\d*\\.\\d+$` decides."""
    body = token[1:-1] if token.endswith("\n") else token[1:]
    whole, dot, frac = body.partition(".")
    return (whole.isdecimal() and not dot) or (frac.isdecimal() and (not whole or whole.isdecimal()))


def _option(token: str, names: Sequence[str]) -> tuple[str, str | None] | None:
    """The option among `names` that a token gives, with the value the token
    carries after `=` (or after `-h`), or None for a positional token."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token in names:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in names:
        return name, value
    if token[1] == "-":
        matches = [n for n in names if n.startswith(name)]
        value = value if eq else None
    else:
        matches, value = [n for n in names if n == token[:2]], token[2:]
    if len(matches) > 1:
        raise UsageError(f"ambiguous option: {name} could match {', '.join(matches)}")
    if matches:
        return matches[0], value
    if _negative_number(token) or " " in token:
        return None
    raise UsageError(f"unrecognized arguments: {token}")


def _value(name: str, kind, text: str):
    if isinstance(kind, tuple):
        if text not in kind:
            raise UsageError(f"argument {name}: invalid choice: {text!r} (choose from {', '.join(kind)})")
        return text
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"argument {name}: invalid {kind.__name__} value: {text!r}") from None


def _usage(command: str | None) -> str:
    """The help of one command, or of the program when command is None."""
    if command is None:
        head = [f"usage: qshuffle {{{','.join(_COMMANDS)}}} TYPE [options]", "", "commands:"]
        rows = [(name, text) for name, (text, _, _) in _COMMANDS.items()]
        tail = ["", "`qshuffle <command> -h` lists the options of a command."]
    else:
        text, options, _ = _COMMANDS[command]
        head, tail = [f"usage: qshuffle {command} TYPE [options]", "", text, ""], []
        rows = [("TYPE", "root-system label such as A3, B2, G2")]
        one_of = ", ".join(name for name, spec in options.items() if spec[1] == _ONE_OF)
        for name, (kind, required, default, help_text) in options.items():
            if kind is not bool:
                name += f" {{{','.join(kind)}}}" if isinstance(kind, tuple) else f" {name[2:].upper()}"
            if required is True:
                help_text += " (required)"
            elif required == _ONE_OF:
                help_text += f" (exactly one of {one_of})"
            elif default:
                help_text += f" (default: {default})"
            rows.append((name, help_text))
        rows.append(("-h, --help", "show this help and exit"))
    width = max(len(name) for name, _ in rows)
    return "\n".join([*head, *(f"  {name:<{width}}  {text}" for name, text in rows), *tail])


def _parse(argv: Sequence[str]) -> _Args | None:
    """The command line's command, TYPE and options, or None when it asked
    for help, which is then printed."""
    if not argv:
        raise UsageError("the following arguments are required: command")
    command, rest = argv[0], list(argv[1:])
    if _option(command, _HELP) is not None:
        print(_usage(None))
        return None
    if command not in _COMMANDS:
        raise UsageError(f"argument command: invalid choice: {command!r} (choose from {', '.join(_COMMANDS)})")
    options = _COMMANDS[command][1]
    end = rest.index("--") if "--" in rest else len(rest)
    found = [_option(token, (*options, *_HELP)) for token in rest[:end]]
    values = {name: spec[2] for name, spec in options.items()}
    given: set[str] = set()
    type_at = None
    i = 0
    while i < end:
        if found[i] is None:
            if type_at is not None:
                raise UsageError(f"unrecognized arguments: {rest[i]}")
            type_at, i = i, i + 1
            continue
        name, text = found[i]
        kind = bool if name in _HELP else options[name][0]
        i += 1
        if kind is bool:
            if text is not None:
                raise UsageError(f"argument {name}: ignored explicit argument {text!r}")
            if name in _HELP:
                print(_usage(command))
                return None
            values[name] = True
        else:
            if text is None:
                if i == end or found[i] is not None:
                    raise UsageError(f"argument {name}: expected one argument")
                text, i = rest[i], i + 1
            values[name] = _value(name, kind, text)
        given.add(name)
    if end < len(rest):
        # every token after `--` is positional, and TYPE may stand just
        # before the `--` or be the one token after it
        if type_at is None and len(rest) == end + 2:
            type_at = end + 1
        elif type_at != end - 1 or len(rest) > end + 1:
            raise UsageError(f"unrecognized arguments: {' '.join(rest[end:])}")
    missing = ["TYPE"] * (type_at is None)
    missing += [name for name, spec in options.items() if spec[1] is True and name not in given]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    one_of = [name for name, spec in options.items() if spec[1] == _ONE_OF]
    if one_of and len(given.intersection(one_of)) != 1:
        raise UsageError(f"exactly one of the arguments {' '.join(one_of)} is required")
    names = {name[2:].replace("-", "_"): value for name, value in values.items()}
    return _Args(command=command, type=rest[type_at], **names)


def _table(args: _Args) -> basis.GoodLyndonTable:
    try:
        datum = cartan.parse(args.type)
        order = tuple(int(p) for p in args.order.split(",")) if args.order else None
        return basis.GoodLyndonTable(datum, order)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _header(args: _Args, table: basis.GoodLyndonTable, **extra: str) -> str:
    order = args.order or ",".join(map(str, table.order))
    parts = [args.command, args.type, f"order={order}"]
    parts.extend(f"{k}={v}" for k, v in extra.items())
    return " ".join(parts)


def _meta(args: _Args, table: basis.GoodLyndonTable, **extra) -> dict:
    return {"command": args.command, "type": args.type, "order": list(table.order), **extra}


def _dumps(obj, **kwargs) -> str:
    import json  # only a run that renders JSON pays for the import

    return json.dumps(obj, sort_keys=True, **kwargs)


def _emit(text_lines: list[str], json_obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(_dumps(json_obj, indent=2))
    else:
        print("\n".join(text_lines))


def _cmd_roots(args) -> int:
    table = _table(args)
    lines = [_header(args, table)]
    entries = []
    for k, beta in enumerate(table.roots_in_convex_order(), start=1):
        l = table.lyndon_of_root(beta)
        lines.append(
            f"{k}  root={cartan.format_weight(beta)}  height={cartan.height(beta)}  l={format_word(l)}"
        )
        entries.append({"root": list(beta), "height": cartan.height(beta), "word": list(l)})
    _emit(lines, {**_meta(args, table), "roots": entries}, args.format)
    return 0


def _cmd_weight(args) -> int:
    """A weight subcommand: one row per item of the weight, under one header."""
    items, row, key = _WEIGHT_COMMANDS[args.command]
    table = _table(args)
    try:
        nu = cartan.parse_weight(args.weight, table.datum.rank)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rows = [row(table, item) for item in items(table, nu)]
    lines = [_header(args, table, weight=cartan.format_weight(nu))] + [line for line, _ in rows]
    _emit(lines, {**_meta(args, table), "weight": list(nu), key: [entry for _, entry in rows]}, args.format)
    return 0


def _good_word_row(table, g: basis.GoodWord) -> tuple[str, dict]:
    factors = " ".join(format_word(l) if m == 1 else f"{format_word(l)}^{m}" for l, m in g.factors)
    return f"{format_word(g.word)} = {factors}", {"word": list(g.word), "factors": [[list(l), m] for l, m in g.factors]}


def _vector_row(table, vec) -> tuple[str, dict]:
    entry = {"good_word": list(vec.good_word.word), "kappa": vec.kappa.to_json(), "element": vec.elt.to_json()}
    return f"{format_word(vec.good_word.word)}: {vec.elt}", entry


def _expand_row(table, vec: basis.DualCanonicalVector) -> tuple[str, dict]:
    expansion = sorted(table.expand_in_dual_pbw(vec.elt).items(), reverse=True)
    line = f"{format_word(vec.good_word.word)}: " + "; ".join(f"{format_word(h)} -> {c}" for h, c in expansion)
    return line, {
        "good_word": list(vec.good_word.word),
        "expansion": [{"at": list(h), "coef": c.to_json()} for h, c in expansion],
    }


def _reality_row(table, vec: basis.DualCanonicalVector) -> tuple[str, dict]:
    real = basis.is_real(table, vec)
    line = f"{format_word(vec.good_word.word)}: {'real' if real else 'imaginary'}"
    return line, {"good_word": list(vec.good_word.word), "real": real}


def _dual_pbw_vectors(table, nu) -> list[basis.DualPBWVector]:
    return [table.dual_pbw(g) for g in table.good_words_of_weight(nu)]


_canonical_vectors = basis.GoodLyndonTable.dual_canonical_weight

# The subcommands that render one weight: the items of the weight, the text
# line and JSON entry of one item, and the JSON key of the entries.
_WEIGHT_COMMANDS = {
    "good-words": (basis.GoodLyndonTable.good_words_of_weight, _good_word_row, "good_words"),
    "dual-pbw": (_dual_pbw_vectors, _vector_row, "dual_pbw"),
    "dual-canonical": (_canonical_vectors, _vector_row, "dual_canonical"),
    "expand": (_canonical_vectors, _expand_row, "expansions"),
    "is-real": (_canonical_vectors, _reality_row, "vectors"),
}


def _cmd_scan(args) -> int:
    table = _table(args)
    if args.max_height < 1:
        raise UsageError("--max-height must be at least 1")
    report = basis.scan(table, args.max_height, args.check)
    lines = [_header(args, table, check=args.check, **{"max-height": str(args.max_height)})]
    entries = []
    for entry in report.entries:
        status = "ok" if not entry.violations else f"violations={len(entry.violations)}"
        lines.append(f"weight {cartan.format_weight(entry.weight)}: vectors={entry.vectors} {status}")
        for v in entry.violations:
            lines.append(f"  witness {_dumps(v)}")
        item = {"weight": list(entry.weight), "vectors": entry.vectors, "violations": list(entry.violations)}
        if args.timing:
            item["elapsed"] = entry.elapsed
        entries.append(item)
    lines.append(
        f"total weights={len(report.entries)} vectors={report.total_vectors} "
        f"violations={report.total_violations}"
    )
    print(f"scan elapsed {report.elapsed:.3f}s", file=sys.stderr)
    obj = {
        **_meta(args, table),
        "check": args.check,
        "max_height": args.max_height,
        "weights": entries,
        "total_vectors": report.total_vectors,
        "total_violations": report.total_violations,
    }
    if args.timing:
        obj["elapsed"] = report.elapsed
    _emit(lines, obj, args.format)
    return 0


def _cmd_character(args) -> int:
    from . import characters  # only this command builds tableau characters

    table = _table(args)
    datum = table.datum
    try:
        if args.skew is not None:
            lam, mu = characters.parse_shape(args.skew)
            if args.shift is None:
                raise UsageError("--skew needs --shift")
            char = characters.skew_tableau_character(datum, characters.SkewShape(lam, mu), args.shift)
            shape_str = f"{args.skew}+{args.shift}"
        else:
            if args.shift is not None:
                raise UsageError("--shifted takes no --shift")
            lam, mu = characters.parse_shape(args.shifted)
            char = characters.shifted_tableau_character(datum, characters.ShiftedSkewShape(lam, mu))
            shape_str = args.shifted
    except (characters.ShapeConstraintViolated, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    try:
        computed = table.dual_canonical_vector(char.good_word)
    except basis.NotGoodWord as exc:  # the shape's word is not good under --order
        raise UsageError(str(exc)) from exc
    verdict = "MATCH" if computed.elt == char.element else "MISMATCH"
    lines = [
        _header(args, table, shape=shape_str),
        f"good word: {format_word(char.good_word)}",
        f"tableaux: {char.tableau_count}",
        f"character: {char.element}",
        f"computed:  {computed.elt}",
        verdict,
    ]
    obj = {
        **_meta(args, table),
        "shape": shape_str,
        "good_word": list(char.good_word),
        "tableaux": char.tableau_count,
        "character": char.element.to_json(),
        "computed": computed.elt.to_json(),
        "match": verdict == "MATCH",
    }
    _emit(lines, obj, args.format)
    return 0


# Each command: its help text, its options and its handler, in the order
# `qshuffle -h` lists them.
_COMMANDS = {
    "roots": ("positive roots in convex order with their Lyndon words", _COMMON, _cmd_roots),
    "good-words": ("good words of one weight with factorizations", _WEIGHT, _cmd_weight),
    "dual-pbw": ("dual PBW vectors of one weight", _WEIGHT, _cmd_weight),
    "dual-canonical": ("dual canonical vectors of one weight", _WEIGHT, _cmd_weight),
    "expand": ("dual PBW expansions of the dual canonical vectors of one weight", _WEIGHT, _cmd_weight),
    "scan": ("check a property over all weights up to a height bound", _SCAN, _cmd_scan),
    "character": ("tableau character sum compared against the computed vector", _CHARACTER, _cmd_character),
    "is-real": ("reality of each dual canonical vector of one weight", _WEIGHT, _cmd_weight),
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return 0 if args is None else _COMMANDS[args.command][2](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away, as `| head` does; point stdout at the null
        # device so that flushing it at exit raises nothing either
        import os

        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return 141
    except (TheoryViolation, ValueError, RecursionError) as exc:
        # the shuffle kernel recurses once per letter, so a long enough word ends here
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
