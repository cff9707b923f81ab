"""Reference parser for the command line.

This is the argparse parser that `qshuffle.cli` used before it read its
command line from one table of its own.  Importing argparse costs every
`qshuffle` process tens of milliseconds, so the library no longer does; this
reference is kept only so tests can require the two parsers to accept the
same command lines with the same values, and to reject the same ones.
"""

from __future__ import annotations

import argparse

from qshuffle import basis
from qshuffle.cli import UsageError


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="qshuffle")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("type", help="root-system label such as A3, B2, G2")
        p.add_argument("--order", help="total order on simple roots, e.g. 2,1", default=None)
        p.add_argument("--format", choices=("text", "json"), default="text")

    common(sub.add_parser("roots", help="positive roots in convex order with their Lyndon words"))

    def weight_command(name: str) -> None:
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--weight", required=True)

    for name in ("good-words", "dual-pbw", "dual-canonical", "expand"):
        weight_command(name)

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

    weight_command("is-real")
    return parser
