"""Command-line front end.

Subcommands: roots, good-words, dual-pbw, dual-canonical, expand, scan,
character, is-real.  Output is deterministic (collections are sorted before
rendering and timing goes to stderr), in plain text or JSON.

Exit codes: 0 success, 1 usage error, 2 internal error (exactness violation or
broken invariant).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from . import basis, cartan, characters
from .laurent import TheoryViolation
from .words import format_word


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qshuffle", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("type", help="root-system label such as A3, B2, G2")
        p.add_argument("--order", help="total order on simple roots, e.g. 2,1", default=None)
        p.add_argument("--format", choices=("text", "json"), default="text")

    common(sub.add_parser("roots", help="positive roots in convex order with their Lyndon words"))

    p = sub.add_parser("good-words", help="good words of one weight with factorizations")
    common(p)
    p.add_argument("--weight", required=True)

    p = sub.add_parser("dual-pbw", help="dual PBW vectors of one weight")
    common(p)
    p.add_argument("--weight", required=True)

    p = sub.add_parser("dual-canonical", help="dual canonical vectors of one weight")
    common(p)
    p.add_argument("--weight", required=True)

    p = sub.add_parser("expand", help="dual PBW expansions of the dual canonical vectors of one weight")
    common(p)
    p.add_argument("--weight", required=True)

    p = sub.add_parser("scan", help="check a property over all weights up to a height bound")
    common(p)
    p.add_argument("--max-height", type=int, required=True)
    p.add_argument("--check", choices=sorted(basis._SCAN_CHECKS), default="positivity")
    p.add_argument("--timing", action="store_true", help="include elapsed seconds in JSON output")

    p = sub.add_parser("character", help="tableau character sum compared against the computed vector")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--skew", help="skew shape lam/mu, e.g. 5,5,3/3,1")
    group.add_argument("--shifted", help="shifted shape lam/mu of strict partitions")
    p.add_argument("--shift", type=int, default=None, help="content shift for skew shapes")

    p = sub.add_parser("is-real", help="reality of each dual canonical vector of one weight")
    common(p)
    p.add_argument("--weight", required=True)

    return parser


def _table(args: argparse.Namespace) -> basis.GoodLyndonTable:
    try:
        datum = cartan.parse(args.type)
        order = tuple(int(p) for p in args.order.split(",")) if args.order else None
        return basis.GoodLyndonTable(datum, order)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _header(args: argparse.Namespace, **extra: str) -> str:
    order = args.order or ",".join(str(i) for i in range(1, cartan.parse(args.type).rank + 1))
    parts = [args.command, args.type, f"order={order}"]
    parts.extend(f"{k}={v}" for k, v in extra.items())
    return " ".join(parts)


def _meta(args: argparse.Namespace, table: basis.GoodLyndonTable, **extra) -> dict:
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
    lines = [_header(args)]
    entries = []
    for k, beta in enumerate(table.roots_in_convex_order(), start=1):
        l = table.lyndon_of_root(beta)
        lines.append(
            f"{k}  root={cartan.format_weight(beta)}  height={cartan.height(beta)}  l={format_word(l)}"
        )
        entries.append({"root": list(beta), "height": cartan.height(beta), "word": list(l)})
    _emit(lines, {**_meta(args, table), "roots": entries}, args.format)
    return 0


def _parse_weight(args, table) -> cartan.Weight:
    try:
        return cartan.parse_weight(args.weight, table.datum.rank)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_good_words(args) -> int:
    table = _table(args)
    nu = _parse_weight(args, table)
    goods = table.good_words_of_weight(nu)
    lines = [_header(args, weight=cartan.format_weight(nu))]
    entries = []
    for g in goods:
        factors = " ".join(
            format_word(l) if m == 1 else f"{format_word(l)}^{m}" for l, m in g.factors
        )
        lines.append(f"{format_word(g.word)} = {factors}")
        entries.append({"word": list(g.word), "factors": [[list(l), m] for l, m in g.factors]})
    _emit(lines, {**_meta(args, table), "weight": list(nu), "good_words": entries}, args.format)
    return 0


def _render_vectors(args, table, vectors, label: str) -> int:
    nu = vectors[0].elt.weight if vectors else _parse_weight(args, table)
    lines = [_header(args, weight=cartan.format_weight(nu))]
    entries = []
    for vec in vectors:
        lines.append(f"{format_word(vec.good_word.word)}: {vec.elt}")
        entries.append(
            {
                "good_word": list(vec.good_word.word),
                "kappa": vec.kappa.to_json(),
                "element": vec.elt.to_json(),
            }
        )
    _emit(lines, {**_meta(args, table), "weight": list(nu), label: entries}, args.format)
    return 0


def _cmd_dual_pbw(args) -> int:
    table = _table(args)
    nu = _parse_weight(args, table)
    vectors = [table.dual_pbw(g) for g in table.good_words_of_weight(nu)]
    return _render_vectors(args, table, vectors, "dual_pbw")


def _cmd_dual_canonical(args) -> int:
    table = _table(args)
    nu = _parse_weight(args, table)
    return _render_vectors(args, table, list(table.dual_canonical_weight(nu)), "dual_canonical")


def _cmd_expand(args) -> int:
    table = _table(args)
    nu = _parse_weight(args, table)
    lines = [_header(args, weight=cartan.format_weight(nu))]
    entries = []
    for vec in table.dual_canonical_weight(nu):
        expansion = table.expand_in_dual_pbw(vec.elt)
        parts = [f"{format_word(h)} -> {c}" for h, c in sorted(expansion.items(), reverse=True)]
        lines.append(f"{format_word(vec.good_word.word)}: " + "; ".join(parts))
        entries.append(
            {
                "good_word": list(vec.good_word.word),
                "expansion": [
                    {"at": list(h), "coef": c.to_json()}
                    for h, c in sorted(expansion.items(), reverse=True)
                ],
            }
        )
    _emit(lines, {**_meta(args, table), "weight": list(nu), "expansions": entries}, args.format)
    return 0


def _cmd_scan(args) -> int:
    table = _table(args)
    if args.max_height < 1:
        raise UsageError("--max-height must be at least 1")
    report = basis.scan(table, args.max_height, args.check)
    lines = [_header(args, check=args.check, **{"max-height": str(args.max_height)})]
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
    table = _table(args)
    datum = table.datum
    try:
        if args.skew:
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
        _header(args, shape=shape_str),
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


def _cmd_is_real(args) -> int:
    table = _table(args)
    nu = _parse_weight(args, table)
    lines = [_header(args, weight=cartan.format_weight(nu))]
    entries = []
    for vec in table.dual_canonical_weight(nu):
        real = basis.is_real(table, vec)
        lines.append(f"{format_word(vec.good_word.word)}: {'real' if real else 'imaginary'}")
        entries.append({"good_word": list(vec.good_word.word), "real": real})
    _emit(lines, {**_meta(args, table), "weight": list(nu), "vectors": entries}, args.format)
    return 0


_COMMANDS = {
    "roots": _cmd_roots,
    "good-words": _cmd_good_words,
    "dual-pbw": _cmd_dual_pbw,
    "dual-canonical": _cmd_dual_canonical,
    "expand": _cmd_expand,
    "scan": _cmd_scan,
    "character": _cmd_character,
    "is-real": _cmd_is_real,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TheoryViolation, ValueError, RecursionError) as exc:
        # the shuffle kernel recurses once per letter, so a long enough word ends here
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
