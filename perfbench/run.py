"""Cold-process benchmark of `qshuffle scan`.

One timed sample is one fresh `python3 -m qshuffle.cli scan ...` process with
empty caches, which is what a command-line user pays on every invocation.  The
loop is closed: one child process at a time, each started after the previous
one has exited.  Each sample's times are scaled by the host's speed, taken
from a fixed reference loop just before and after it.  See perfbench/README.md
for the metrics, the workloads and the predictions each per-layer metric
serves.

    python3 perfbench/run.py --workload a3-positivity --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 3

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones, measured untraced; with `--trace 1` they are the per-layer
ones, from two traced runs in separate processes (see tracer.py).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import platform
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
BUILD = ROOT / ".bench_build"

# A child that runs longer than this is killed and counted as failed, so one
# invocation always ends well within its time limit.
CHILD_TIMEOUT_S = 60.0
# Fewest timed processes per run, however long each takes.
MIN_SAMPLES = 3
# The timing metrics are in seconds of a host that runs `reference_loop` in
# exactly this long (see `host_scale`).
REFERENCE_S = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    type: str
    max_height: int
    check: str

    def scan_args(self, order: tuple[int, ...]) -> list[str]:
        return [
            "scan", self.type, "--max-height", str(self.max_height),
            "--check", self.check, "--order", format_order(order),
        ]

    def header(self, order: tuple[int, ...]) -> str:
        """The first stdout line `qshuffle scan` prints for this order."""
        return (
            f"scan {self.type} order={format_order(order)} "
            f"check={self.check} max-height={self.max_height}"
        )


# Each workload stresses a different layer; README.md gives the reasons.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("a3-positivity", "A3", 7, "positivity"),
        Workload("d4-invariants", "D4", 5, "invariants"),
        Workload("b2-reality", "B2", 5, "reality"),
    )
}
# A tiny input for the harness self-check.
SELF_CHECK = Workload("a2-selfcheck", "A2", 4, "positivity")

# Children compile the sources to bytecode once per checkout, as an installed
# package would have, and keep it out of the source tree.
CHILD_ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"},
    "PYTHONPATH": str(SRC),
    "PYTHONPYCACHEPREFIX": str(BUILD / "pycache"),
}
# -S skips site-packages start-up hooks (.pth files), which belong to the
# interpreter's installation rather than to qshuffle and cost a varying few
# hundred milliseconds per process on some installations; qshuffle needs no
# third-party package.
PYTHON = [sys.executable, "-S"]

# Built in a fresh process: spawn-to-"ready" is the set-up a scan pays before
# its first weight.
SETUP_PROBE = (
    "import sys\n"
    "from qshuffle import GoodLyndonTable, cartan\n"
    "GoodLyndonTable(cartan.parse(sys.argv[1]), tuple(int(p) for p in sys.argv[2].split(',')))\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)


def format_order(order: tuple[int, ...]) -> str:
    return ",".join(str(a) for a in order)


def pin_to_one_cpu() -> None:
    """Run the harness, every child and the reference loop on one CPU.

    Children inherit the affinity.  Unpinned on the 2-vCPU reference box,
    the per-sample ratio of scan time to reference time spread 1.5 times as
    much, as processes moved between vCPUs that the host loads unevenly.
    The scan is single-threaded, so one CPU is all it uses either way."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def load_program():
    """Import qshuffle from the checkout's own source tree."""
    if not (SRC / "qshuffle" / "__init__.py").is_file():
        raise SystemExit(f"error: no qshuffle sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.pycache_prefix = str(BUILD / "pycache")
    import qshuffle

    return qshuffle


# -- inputs from the seed ------------------------------------------------------


def seed_order(cartan, workload: Workload, seed: int) -> tuple[int, ...]:
    """The `--order` every process of a run uses: natural for seed 0, else one
    drawn by the seed from the other orders whose relabeled datum is the datum
    itself (the diagram automorphisms: 3,2,1 for A3, five for D4, none for B2).

    Those orders do the same arithmetic as the natural one; only the header,
    the letter relabeling at the table's boundary and the command line change.
    Other orders change the good words and the pivots, and with them the cost
    by up to half (README.md), so they would make a different workload.
    """
    datum = cartan.parse(workload.type)
    natural = tuple(range(1, datum.rank + 1))
    others = [
        o for o in itertools.permutations(natural)
        if o != natural and cartan.reorder(datum, o) == datum
    ]
    if seed == 0 or not others:
        return natural
    return random.Random(f"{workload.name}/{seed}").choice(others)


def expected_vectors(cartan, workload: Workload) -> int:
    """Sum over weights of the number of Kostant partitions."""
    datum = cartan.parse(workload.type)
    return sum(
        len(cartan.kostant_partitions(datum, nu))
        for nu in cartan.weights_up_to_height(datum.rank, workload.max_height)
    )


def read_golden(workload: Workload) -> list[str]:
    return (GOLDEN / f"{workload.name}.txt").read_text().splitlines()


# -- child processes -------------------------------------------------------------


@dataclass
class Child:
    returncode: int
    spawned_at: float  # CLOCK_MONOTONIC, just before the spawn
    stdout: str
    stderr: str
    wall_s: float
    ready_s: float | None
    peak_rss_mb: float
    timed_out: bool


# Every measured process is started by this small launcher, which times it
# and reports its rusage.  Started straight from the harness, a child's
# ru_maxrss would include the harness's own RSS: Linux carries the peak RSS
# of the pre-exec image into the child, and that image is the harness's.
# The launcher's own image is smaller than any qshuffle process.
LAUNCHER = (
    "import os, sys, time\n"
    "fd = int(sys.argv[1])\n"
    "os.set_inheritable(fd, False)\n"
    "t0 = time.monotonic()\n"
    "pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "t1 = time.monotonic()\n"
    "os.write(fd, f'{t0!r} {t1!r} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}'.encode())\n"
)


def run_child(args: list[str], wait_for_ready: bool = False) -> Child:
    """Run `python3 -S <args>` to completion through LAUNCHER: time spawn to
    exit (and, if asked, spawn to the first stdout line) and read the child's
    own peak RSS."""
    report_r, report_w = os.pipe()
    err: list[bytes] = []
    start = time.monotonic()
    try:
        proc = subprocess.Popen(
            [*PYTHON, "-c", LAUNCHER, str(report_w), *PYTHON, *args], cwd=ROOT, env=CHILD_ENV,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            pass_fds=(report_w,), start_new_session=True,
        )
    except BaseException:
        os.close(report_r)
        raise
    finally:
        os.close(report_w)
    # The launcher and the child share a new process group; kill both on timeout.
    timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    try:
        timer.start()
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        ready_at = None
        first = b""
        if wait_for_ready:
            first = proc.stdout.readline()
            ready_at = time.monotonic()
        out = first + proc.stdout.read()
        reader.join()
        proc.wait()
        with os.fdopen(report_r, "rb") as report_file:
            report = report_file.read().split()
    finally:
        timer.cancel()
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    if not report:  # the launcher was killed before it could report
        return Child(proc.returncode, start, out.decode(), b"".join(err).decode(),
                     time.monotonic() - start, None, 0.0, True)
    spawned_at, ended_at = float(report[0]), float(report[1])
    return Child(
        int(report[3]), spawned_at, out.decode(), b"".join(err).decode(), ended_at - spawned_at,
        None if ready_at is None else ready_at - spawned_at, int(report[2]) / 1024.0, False,
    )


@functools.cache
def reference_table() -> dict[tuple[int, int, int], int]:
    """200k tuple keys, about 45 MB: larger than the CPU caches, like the
    dicts a scan builds.  Built once per invocation, outside every timing."""
    return {(j % 1009, j // 1009, j & 7): j for j in range(200_000)}


def reference_loop() -> int:
    """Fixed pure-Python work that never changes with qshuffle, about 0.1 s on
    the reference box: integer arithmetic in the interpreter's main loop,
    then lookups spread over `reference_table`.  The lookups miss the caches
    as a scan's dict lookups do, so host contention slows the reference about
    as much as it slows a scan; integer arithmetic alone slowed less."""
    s = 0
    for i in range(400_000):
        s += i * i % 7
    table = reference_table()
    for i in range(40_000):
        j = i * 7919 % 200_000
        s += table[j % 1009, j // 1009, j & 7]
    return s


def host_scale() -> float:
    """REFERENCE_S / the time `reference_loop` takes right now.

    The shared host's speed drifts by up to 1.6x over minutes.  A sample's
    times multiplied by the mean scale just before and just after it are
    that sample in seconds of a host of fixed speed, so the drift cancels
    while anything that changes in qshuffle still shows in full."""
    reference_table()
    start = time.perf_counter()
    reference_loop()
    return REFERENCE_S / (time.perf_counter() - start)


def setup_probe(workload: Workload, order: tuple[int, ...]) -> float:
    child = run_child(["-c", SETUP_PROBE, workload.type, format_order(order)], wait_for_ready=True)
    if child.returncode != 0 or child.stdout != "ready\n":
        raise SystemExit(f"error: set-up probe failed ({child.returncode}): {child.stderr.strip()}")
    return child.ready_s


def gate(child: Child, workload: Workload, order, golden: list[str], vectors: int) -> str | None:
    """Why this scan process's output is wrong, or None when it is correct."""
    if child.timed_out:
        return f"killed after {CHILD_TIMEOUT_S:.0f} s"
    if child.returncode != 0:
        return f"exit code {child.returncode}: {child.stderr.strip()[-300:]}"
    lines = child.stdout.splitlines()
    if not lines or lines[0] != workload.header(order):
        return f"header {lines[:1]!r} != {workload.header(order)!r}"
    if lines[1:] != golden:
        bad = next(
            (i for i, (a, b) in enumerate(itertools.zip_longest(lines[1:], golden)) if a != b), None
        )
        return f"stdout line {bad + 2} differs from the golden"
    m = re.search(r" vectors=(\d+) ", lines[-1])
    if not m or int(m.group(1)) != vectors:
        return f"total vectors {m and m.group(1)} != {vectors} Kostant partitions"
    return None


# -- untraced runs ---------------------------------------------------------------


@dataclass
class Timed:
    walls: list[float]  # as measured
    setups: list[float]  # as measured
    scales: list[float]  # host_scale around each (set-up, scan) pair
    rss: list[float]
    order: tuple[int, ...]
    vectors: int
    failures: list[str]


def measure(program, workload: Workload, seed: int, seconds: float, golden: list[str],
            min_samples: int = MIN_SAMPLES) -> Timed:
    """Alternate one set-up probe and one timed scan process, with the host's
    speed taken between pairs, until the next pair would overrun `seconds`
    (and at least `min_samples` ran)."""
    vectors = expected_vectors(program.cartan, workload)
    order = seed_order(program.cartan, workload, seed)
    # Compile the sources to bytecode once, outside the samples.
    setup_probe(workload, order)
    run = Timed([], [], [], [], order, vectors, [])
    start = time.monotonic()
    before = host_scale()
    while True:
        run.setups.append(setup_probe(workload, order))
        child = run_child(["-m", "qshuffle.cli", *workload.scan_args(order)])
        after = host_scale()
        run.scales.append((before + after) / 2)
        before = after
        run.walls.append(child.wall_s)
        run.rss.append(child.peak_rss_mb)
        reason = gate(child, workload, order, golden, vectors)
        if reason is not None:
            run.failures.append(reason)
        elapsed = time.monotonic() - start
        per_sample = elapsed / len(run.walls)
        if len(run.walls) >= min_samples and elapsed + per_sample > seconds:
            return run


def end_to_end(run: Timed) -> dict[str, tuple[float, str]]:
    """The BENCHMARK.json metrics; times are medians of scaled samples."""
    wall = statistics.median(w * k for w, k in zip(run.walls, run.scales))
    setup = statistics.median(s * k for s, k in zip(run.setups, run.scales))
    return {
        "wall_s": (wall, "s"),
        "setup_s": (setup, "s"),
        "vectors_per_s": (run.vectors / (wall - setup), "1/s"),
        "peak_rss_mb": (statistics.median(run.rss), "MB"),
    }


def self_check(program) -> None:
    """The correctness gate must pass the true golden and fail an altered one."""
    golden = read_golden(SELF_CHECK)
    altered = list(golden)
    altered[0] = altered[0].replace("vectors=1 ", "vectors=2 ")
    if altered == golden:
        raise SystemExit("error: self-check could not alter its golden")
    for lines, want in ((golden, 0.0), (altered, 1.0)):
        run = measure(program, SELF_CHECK, 0, 0.0, lines, 1)
        failed_frac = len(run.failures) / len(run.walls)
        if failed_frac != want:
            raise SystemExit(
                f"error: harness self-check: failed_frac {failed_frac} != {want}; {run.failures}"
            )


# -- run record --------------------------------------------------------------------


def run_record(seed: int) -> dict:
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None  # a checkout without git metadata; src_sha256 identifies it
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


# -- one workload ------------------------------------------------------------------------


def run_untraced(program, workload: Workload, seed: int, seconds: float) -> dict:
    run = measure(program, workload, seed, seconds, read_golden(workload))
    metrics = end_to_end(run)
    attempted, failed = len(run.walls), len(run.failures)
    print(f"workload {workload.name} seed {seed}: {attempted} cold scan processes, order {format_order(run.order)}")
    print("record " + json.dumps({**run_record(seed), "vectors": run.vectors, "samples": attempted}))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<14} {value:.6g} {unit}")
    print(f"  {'failed_frac':<14} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    # Unscaled, for reading against a stopwatch; not in the JSON result.
    print(f"  {'raw_wall_s':<14} {statistics.median(run.walls):.6g} s")
    print(f"  {'raw_setup_s':<14} {statistics.median(run.setups):.6g} s")
    print(f"  {'reference_s':<14} {REFERENCE_S / statistics.median(run.scales):.6g} s")
    for reason in run.failures:
        print(f"FAILED {workload.name}: {reason}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def traced_child(workload: Workload, order: tuple[int, ...], traced: bool) -> tuple[dict | None, str | None]:
    """One run of tracer.py in a fresh process: (result, failure reason)."""
    child = run_child([str(HERE / "tracer.py"), workload.name, format_order(order), str(int(traced))])
    if child.returncode != 0:
        return None, f"exit code {child.returncode}: {child.stderr.strip()[-300:]}"
    result = json.loads(child.stdout.splitlines()[-1])
    # Both clocks are CLOCK_MONOTONIC: spawn to the end of phases 1 and 2.
    result["wall_s"] = result.pop("phases_end") - child.spawned_at
    return result, result["gate"]


def run_traced(program, workload: Workload, seed: int) -> dict:
    """Two traced runs for the per-layer metrics, alternating with two runs of
    the same phases untraced, against which trace.overhead_s is taken."""
    import tracer

    order = seed_order(program.cartan, workload, seed)
    failures = []
    runs: dict[bool, list[dict]] = {True: [], False: []}
    for traced in (True, False, True, False):
        result, reason = traced_child(workload, order, traced)
        if result is None:
            raise SystemExit(f"error: traced run of {workload.name} failed: {reason}")
        if reason is not None:
            failures.append(f"{'traced' if traced else 'untraced'} run: {reason}")
        runs[traced].append(result)
    first, second = (t["counts"] for t in runs[True])
    if first != second:
        differ = sorted(k for k in first if first[k] != second.get(k))
        failures.append(f"exact counts differ between two traced runs: {differ}")
    spans_path = BUILD / "trace" / f"{workload.name}-seed{seed}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps([t["spans"] for t in runs[True]]))
    overhead = statistics.median(t["wall_s"] for t in runs[True]) - statistics.median(
        t["wall_s"] for t in runs[False]
    )
    metrics = tracer.per_layer(runs[True], overhead)

    attempted = len(runs[True]) + len(runs[False])
    print(f"workload {workload.name} seed {seed}: traced runs with order {format_order(order)}")
    print("record " + json.dumps({
        **run_record(seed),
        "trace.overhead_s": overhead,
        "spans": spans_path.relative_to(ROOT).as_posix(),
    }))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:.6g} {unit}")
    for reason in failures:
        print(f"FAILED {workload.name}: {reason}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        # each failure names one process, except a count mismatch, which
        # fails the second traced run
        "failed": min(len(failures), attempted),
        "metrics": {
            name: {"value": v, "unit": u} for name, (v, u) in metrics.items() if name not in tracer.TEXT_ONLY
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="0 is the natural order; see README.md")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="length of an untraced run; a traced run is sized by its work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    pin_to_one_cpu()
    program = load_program()
    self_check(program)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        if args.trace:
            results[name] = run_traced(program, WORKLOADS[name], args.seed)
        else:
            results[name] = run_untraced(program, WORKLOADS[name], args.seed, args.seconds)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
