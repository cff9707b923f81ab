"""The output contract end to end: the benchmark's three scans, run as
`python -O -m qshuffle.cli` processes, print byte for byte the golden
stdout in `perfbench/golden/`.  Under `-O` no `assert` runs, so this also
shows that exactness never rests on one.  The goldens are only read."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANS = {
    "a3-positivity": ("A3", 7, "positivity"),
    "d4-invariants": ("D4", 5, "invariants"),
    "b2-reality": ("B2", 5, "reality"),
}


@pytest.mark.parametrize("name", SCANS)
def test_scan_stdout_matches_the_golden_under_optimization(name):
    label, max_height, check = SCANS[name]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    args = ["scan", label, "--max-height", str(max_height), "--check", check]
    done = subprocess.run(
        [sys.executable, "-O", "-m", "qshuffle.cli", *args], capture_output=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr.decode()
    header, _, body = done.stdout.partition(b"\n")
    order = ",".join(str(i) for i in range(1, int(label[1:]) + 1))
    assert header == f"scan {label} order={order} check={check} max-height={max_height}".encode()
    assert body == (ROOT / "perfbench" / "golden" / f"{name}.txt").read_bytes()
