"""The traced run: per-layer spans and counts for one workload, from outside
the program.

run.py starts it as a child process (`python3 perfbench/tracer.py
<workload> <order> <1|0>`), so every run starts with empty caches; the last
stdout line is the run's counts, times and kept spans as JSON.  With 1 it
replaces public functions of the qshuffle modules with timing wrappers;
with 0 it installs none, and the same phases run untraced as the reference
for trace.overhead_s.  The phases, on the workload's datum and order, are:

1. construction: `GoodLyndonTable.dual_canonical_weight` on every weight;
2. check: `basis.scan` on the now-warm table;
3. warm re-scan: `basis.scan` on a fresh table, untraced, so only the
   module-global caches (word pairs, Kostant partitions) are warm.

Every wrapped call is a span.  Spans nest on a stack; a span's self time is
its duration minus the durations of the spans directly inside it.  Calls
below the basis layer run hundreds of thousands of times, so their spans are
aggregated per name as they close (calls, busy, self); basis-layer spans
(phases, construction and check per weight) are also kept whole, with their
parent, and written out when the run ends.  Per-layer figures cover phases
1 and 2, which together do the work of one cold scan.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Per-layer metric -> unit; the order run.py prints them in.
UNITS = {
    "laurent.mul.calls": "count",
    "laurent.mul.self_s": "s",
    "laurent.mul.term_products": "count",
    "laurent.mul.monomial_frac": "ratio",
    "laurent.exact_div.calls": "count",
    "laurent.exact_div.self_s": "s",
    "laurent.q_binom.calls": "count",
    "laurent.q_binom.self_s": "s",
    "shuffle.qshuffle.calls": "count",
    "shuffle.qshuffle.self_s": "s",
    "shuffle.qshuffle.word_pairs": "count",
    "shuffle.cache_entries": "count",
    "shuffle.cache_terms": "count",
    "shuffle.warm_scan_s": "s",
    "shuffle.elt.calls": "count",
    "shuffle.elt.self_s": "s",
    "shuffle.elt.terms_touched": "count",
    "shuffle.serre_membership.calls": "count",
    "shuffle.serre_membership.self_s": "s",
    "words.lyndon_factorization.calls": "count",
    "words.lyndon_factorization.self_s": "s",
    "basis.construct.busy_s": "s",
    "basis.construct.self_s": "s",
    "basis.check.busy_s": "s",
    "basis.check.self_s": "s",
    "cartan.kostant_partitions.calls": "count",
    "cartan.kostant_partitions.self_s": "s",
    "basis.dual_canonical_weight.calls": "count",
    "basis.max_support": "count",
    "trace.overhead_s": "s",
}
# Printed with the others but left out of the JSON result: these layers are
# reached only by the invariants check, so elsewhere their self time is
# exactly 0 in every run, and a time that never varies is no measurement.
# Their `.calls` counts stay in the result and show the same split.
TEXT_ONLY = frozenset({"laurent.q_binom.self_s", "shuffle.serre_membership.self_s"})


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # [start, time in child spans]
        self.agg: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy, self
        self.counts: dict[str, int] = {}
        self.spans: list[dict] = []  # basis-layer spans, kept whole
        self.open: list[int] = []  # indices of the enclosing kept spans
        self.patched: list[tuple[object, str, object]] = []

    def _enter(self, name: str, keep: bool) -> list[float]:
        frame = [time.perf_counter(), 0.0]
        self.stack.append(frame)
        if keep:
            parent = self.open[-1] if self.open else None
            self.spans.append({"name": name, "parent": parent, "start": frame[0]})
            self.open.append(len(self.spans) - 1)
        return frame

    def _exit(self, name: str, frame: list[float], keep: bool) -> None:
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame[0]
        agg = self.agg[name]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - frame[1]
        if self.stack:
            self.stack[-1][1] += duration
        if keep:
            span = self.spans[self.open.pop()]
            span["end"] = end
            span["self"] = duration - frame[1]

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(name, frame, True)

    def wrap(self, owner: object, attr: str, name: str, note=None, keep: bool = False) -> None:
        """Replace owner.attr with a span around it; `note(*args)` adds counts."""
        fn = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            if note is not None:
                note(*args)
            frame = enter(name, keep)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(name, frame, keep)

        self.patched.append((owner, attr, fn))
        _assign(owner, attr, traced)

    def unwrap_all(self) -> None:
        for owner, attr, fn in reversed(self.patched):
            _assign(owner, attr, fn)
        self.patched.clear()


def _assign(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def instrument(tracer: Tracer, qs) -> None:
    """Wrap the public functions each per-layer metric reads."""
    laurent, shuffle, words, cartan, basis = qs.laurent, qs.shuffle, qs.words, qs.cartan, qs.basis
    counts = tracer.counts
    for name in ("laurent.mul.term_products", "laurent.mul.monomial_calls",
                 "shuffle.qshuffle.word_pairs", "shuffle.elt.terms_touched"):
        counts[name] = 0

    def note_mul(a, b):
        n = len(a.terms)
        m = len(b.terms) if isinstance(b, laurent.LaurentPoly) else 1
        counts["laurent.mul.term_products"] += n * m
        if n == 1 or m == 1:
            counts["laurent.mul.monomial_calls"] += 1

    def note_pairs(f, g):
        counts["shuffle.qshuffle.word_pairs"] += len(f.terms) * len(g.terms)

    def note_one(f, *_):
        counts["shuffle.elt.terms_touched"] += len(f.terms)

    def note_two(f, g):
        counts["shuffle.elt.terms_touched"] += len(f.terms) + len(g.terms)

    tracer.wrap(laurent.LaurentPoly, "__mul__", "laurent.mul", note_mul)
    tracer.wrap(laurent, "exact_div", "laurent.exact_div")
    tracer.wrap(laurent, "q_binom", "laurent.q_binom")
    tracer.wrap(shuffle, "qshuffle", "shuffle.qshuffle", note_pairs)
    tracer.wrap(shuffle, "serre_membership", "shuffle.serre_membership")
    # `-` is `+` of a negation: its own span holds only the dispatch, and the
    # terms it touches are counted by the nested `+` and negation.
    tracer.wrap(shuffle.ShuffleElt, "scaled", "shuffle.elt", note_one)
    tracer.wrap(shuffle.ShuffleElt, "__neg__", "shuffle.elt", note_one)
    tracer.wrap(shuffle.ShuffleElt, "__add__", "shuffle.elt", note_two)
    tracer.wrap(shuffle.ShuffleElt, "__sub__", "shuffle.elt")
    tracer.wrap(words, "lyndon_factorization", "words.lyndon_factorization")
    tracer.wrap(cartan, "kostant_partitions", "cartan.kostant_partitions")
    tracer.wrap(basis.GoodLyndonTable, "dual_canonical_weight", "basis.construct", keep=True)
    for check in basis._SCAN_CHECKS:
        tracer.wrap(basis._SCAN_CHECKS, check, "basis.check", keep=True)


def golden_weights(name: str) -> list[tuple[str, int]]:
    """(weight, vectors) of every `weight ...: vectors=N ok` golden line."""
    text = (HERE / "golden" / f"{name}.txt").read_text()
    return [(w, int(n)) for w, n in re.findall(r"^weight ([\d,]+): vectors=(\d+) ok$", text, re.M)]


# Spans whose call count and self time are reported as `<name>.calls` and
# `<name>.self_s`.
CALLED = (
    "laurent.mul", "laurent.exact_div", "laurent.q_binom", "shuffle.qshuffle", "shuffle.elt",
    "shuffle.serre_membership", "words.lyndon_factorization", "cartan.kostant_partitions",
)


def traced_run(workload_name: str, order: tuple[int, ...], traced: bool) -> dict:
    import qshuffle as qs
    from run import WORKLOADS

    workload = WORKLOADS[workload_name]
    tracer = Tracer()
    if traced:
        instrument(tracer, qs)
    datum = qs.cartan.parse(workload.type)
    table = qs.GoodLyndonTable(datum, order)
    max_support = 0
    with tracer.span("phase.construct"):
        for nu in qs.cartan.weights_up_to_height(datum.rank, workload.max_height):
            for vec in table.dual_canonical_weight(nu):
                max_support = max(max_support, len(vec.elt.terms))
    with tracer.span("phase.check"):
        report = qs.basis.scan(table, workload.max_height, workload.check)
    phases_end = time.monotonic()
    tracer.unwrap_all()
    cache = qs.shuffle._CACHE

    t0 = time.perf_counter()
    warm = qs.basis.scan(qs.GoodLyndonTable(datum, order), workload.max_height, workload.check)
    warm_scan_s = time.perf_counter() - t0

    want = golden_weights(workload.name)
    gate = None
    for phase in (report, warm):
        if phase.total_violations:
            gate = "the scan reported violations"
        elif [(qs.cartan.format_weight(e.weight), e.vectors) for e in phase.entries] != want:
            gate = "per-weight vector counts differ from the golden"

    agg = tracer.agg
    counts = {
        **tracer.counts,
        **{f"{name}.calls": int(agg[name][0]) for name in CALLED},
        "basis.dual_canonical_weight.calls": int(agg["basis.construct"][0]),
        "basis.max_support": max_support,
        "shuffle.cache_entries": len(cache),
        "shuffle.cache_terms": sum(len(p) for value in cache.values() for p in value.values()),
    }
    times = {
        **{f"{name}.self_s": agg[name][2] for name in (*CALLED, "basis.construct", "basis.check")},
        "basis.construct.busy_s": agg["basis.construct"][1],
        "basis.check.busy_s": agg["basis.check"][1],
        "shuffle.warm_scan_s": warm_scan_s,
    }
    return {"counts": counts, "times": times, "phases_end": phases_end, "gate": gate, "spans": tracer.spans}


def per_layer(traced: list[dict], overhead_s: float) -> dict[str, tuple[float, str]]:
    """Counts from the first run (run.py checks they repeat), times as medians."""
    values: dict[str, float] = dict(traced[0]["counts"])
    calls = values["laurent.mul.calls"]
    values["laurent.mul.monomial_frac"] = values.pop("laurent.mul.monomial_calls") / calls if calls else 0.0
    for name in traced[0]["times"]:
        values[name] = statistics.median(t["times"][name] for t in traced)
    values["trace.overhead_s"] = overhead_s
    return {name: (values[name], unit) for name, unit in UNITS.items()}


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    order = tuple(int(p) for p in sys.argv[2].split(","))
    print(json.dumps(traced_run(sys.argv[1], order, sys.argv[3] == "1")))
