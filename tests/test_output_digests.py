"""The output contract beyond the benchmark goldens: the SHA-256 digest of
the stdout of each run below, recorded once from the code before the dual
PBW memo and the first-factor q-shift were introduced.  The runs reach the
dual PBW route through straightening, expansion, the reality squares and
`dual-pbw`, in natural and non-natural orders.  A mismatch means the output
changed; it is a failure, never a digest to refresh."""

import hashlib

import pytest

from qshuffle.cli import main

DIGESTS = {
    "scan A3 --max-height 7 --check invariants --order 2,1,3":
        "cd2637dc329a5056f186e43922533225bfa76f42dbd692a1096b342aca1bd7ad",
    "scan C3 --max-height 5 --check invariants --order 3,1,2":
        "be203f3981354b5f99f7ffd9471fbe78f8fcf97f3d24c4c586307c07b97b9d64",
    "scan G2 --max-height 8 --check invariants --order 2,1":
        "561dd2afbf0b3cdc594fa5e75086d849818e7e793b856926ddbab56524cc431c",
    "scan F4 --max-height 4 --check invariants":
        "7b16cfbd219e36cbccd29e3e0128ca0d512219bfca7c29dd7d142f3f547e0edf",
    "scan G2 --max-height 5 --check reality --order 2,1":
        "906694f54b66c148908b7414323fd39025281f1b6487f4a356ccf73352cc55c9",
    "expand G2 --weight 3,2":
        "6611fa6f2f174783bb7a9ab362118c3b73a5df62e78fc8c9f978014e0617fa23",
    "dual-pbw G2 --weight 3,2 --order 2,1":
        "63e45dbbba90a1a008640837890bdb77878185b3859e2c283302ef083266f80f",
}


@pytest.mark.parametrize("command", DIGESTS)
def test_stdout_digest(capsys, command):
    assert main(command.split()) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == DIGESTS[command]
