"""The README's library quick start runs as written and prints what it shows."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# G2: each good Lyndon word with its root, then the dual canonical vectors of
# weight (3, 2), ascending by good word.
QUICK_START_OUTPUT = """\
(1,) <-> (1, 0)
(1, 1, 1, 2) <-> (3, 1)
(1, 1, 2) <-> (2, 1)
(1, 1, 2, 1, 2) <-> (3, 2)
(1, 2) <-> (1, 1)
(2,) <-> (0, 1)
w[1,1,2,1,2] = (q^3 + 2*q + 2*q^-1 + q^-3) * w[1,1,2,1,2] \
+ (q^6 + 2*q^4 + 2*q^2 + 2 + 2*q^-2 + 2*q^-4 + q^-6) * w[1,1,1,2,2]
w[1,2,1,1,2] = (q + q^-1) * w[1,2,1,1,2]
w[1,2,1,2,1] = (q + q^-1) * w[1,2,1,2,1] + (q^4 + q^2 + q^-2 + q^-4) * w[1,1,2,2,1] + (q + q^-1) * w[1,1,2,1,2]
w[2,1,1,1,2] = (q^3 + 2*q + 2*q^-1 + q^-3) * w[2,1,1,1,2]
w[2,1,1,2,1] = (q + q^-1) * w[2,1,1,2,1]
w[2,1,2,1,1] = (q + q^-1) * w[2,1,2,1,1] + (q^4 + q^2 + q^-2 + q^-4) * w[1,2,2,1,1] + (q + q^-1) * w[1,2,1,2,1]
w[2,2,1,1,1] = (q^6 + 2*q^4 + 2*q^2 + 2 + 2*q^-2 + 2*q^-4 + q^-6) * w[2,2,1,1,1] \
+ (q^3 + 2*q + 2*q^-1 + q^-3) * w[2,1,2,1,1]
"""


def _quick_start():
    """The first python block under the "Quick start (library)" heading."""
    section = (ROOT / "README.md").read_text().split("\n## Quick start (library)\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_quick_start_runs_as_written():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-S", "-c", _quick_start()], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == QUICK_START_OUTPUT
