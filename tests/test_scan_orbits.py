"""`basis.scan` straightens only the first weight of each orbit of the
diagram automorphisms and seeds the pass of each later member with the
relabeled vectors, and it decides reality once per origin: the vector that
the others of its class are reversals or relabelings of.  The scan must
agree with the per-weight, per-vector reference in `scan_oracle`, every
relabeled weight with a fresh construction, a spoilt verdict must reach the
whole class, and the pass must catch images that a letter map which does
not fix the datum, or a spoilt vector, would give.  Membership in U is
decided once per origin too: an image outside U must still be reported with
its own witness, whatever its origin's verdict, and a vector in U must raise
when its origin is outside U or when it has no dual PBW expansion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import scan_oracle
from qshuffle import basis, cartan, shuffle
from qshuffle.basis import StraighteningFailure

ROOT = Path(__file__).resolve().parent.parent


def _scan_capturing(monkeypatch, table, max_height):
    """Scan with a check that keeps every weight's vectors; also the internal
    weights the table straightened, those whose pass was given no images."""
    captured, built = [], []
    monkeypatch.setitem(basis._SCAN_CHECKS, "capture", lambda table, vectors, verdicts: captured.append(vectors) or [])
    straighten = basis.GoodLyndonTable._dual_canonical_weight_i

    def recording(self, nui, images=None):
        if images is None:
            built.append(nui)
        return straighten(self, nui, images)

    monkeypatch.setattr(basis.GoodLyndonTable, "_dual_canonical_weight_i", recording)
    report = basis.scan(table, max_height, "capture")
    monkeypatch.undo()
    return report, captured, built


@pytest.mark.parametrize("check", ["positivity", "reality", "invariants"])
@pytest.mark.parametrize(
    "label, max_height, order",
    [
        ("A3", 6, None),
        ("A3", 6, (3, 2, 1)),
        ("D4", 4, None),
        ("D4", 4, (4, 1, 3, 2)),
        # the imaginary vector at (1,1,2,1) and seeded weights
        ("D4", 5, None),
        ("D4", 5, (4, 1, 3, 2)),
        # reversal pairs without automorphisms, 7 and 3 imaginary vectors
        ("G2", 6, (2, 1)),
        ("C3", 5, (3, 1, 2)),
    ],
)
def test_scan_records_equal_the_per_weight_oracle(label, max_height, order, check):
    datum = cartan.parse(label)
    report = basis.scan(basis.GoodLyndonTable(datum, order), max_height, check)
    expected = scan_oracle.scan_records(basis.GoodLyndonTable(datum, order), max_height, check)
    assert [(e.weight, e.vectors, e.violations) for e in report.entries] == expected


@pytest.mark.parametrize(
    "label, max_height, straightened",
    [("A3", 7, 69), ("D4", 5, None), ("A4", 6, None), ("D5", 4, None), ("E6", 4, None)],
)
def test_relabeled_weights_equal_a_fresh_construction(monkeypatch, label, max_height, straightened):
    datum = cartan.parse(label)
    table = basis.GoodLyndonTable(datum)
    report, captured, built = _scan_capturing(monkeypatch, table, max_height)
    weights = [e.weight for e in report.entries]
    assert weights == list(cartan.weights_up_to_height(datum.rank, max_height))
    derived = [(nu, vectors) for nu, vectors in zip(weights, captured) if nu not in built]
    assert len(built) + len(derived) == len(weights) and derived
    if straightened is not None:
        assert len(built) == straightened
    fresh = basis.GoodLyndonTable(datum)
    for nu, vectors in derived:
        want = fresh._dual_canonical_weight_i(nu)
        assert [(g, {w: c.terms for w, c in elt.terms.items()}, elt.terms[g]) for g, elt, _ in vectors] == [
            (g, {w: c.terms for w, c in elt.terms.items()}, elt.terms[g]) for g, elt, _ in want
        ], nu
        assert all(elt.weight == nu for _, elt, *_ in vectors)


@pytest.mark.parametrize(
    "label, max_height, order, solves, carried",
    [
        # reversal pairs only: the vector at each pair's maximal word is carried
        ("B2", 5, None, 29, 11),
        ("G2", 7, None, 73, 42),
        # and sigma-images: every later member of an orbit is carried whole
        ("D4", 5, None, 67, 253),
        ("D4", 5, (2, 1, 3, 4), 67, 253),
    ],
)
def test_reality_solves_one_vector_per_origin(monkeypatch, label, max_height, order, solves, carried):
    real = basis.GoodLyndonTable._is_real_i
    solved = []
    monkeypatch.setattr(basis.GoodLyndonTable, "_is_real_i", lambda table, elt: solved.append(elt) or real(table, elt))
    report = basis.scan(basis.GoodLyndonTable(cartan.parse(label), order), max_height, "reality")
    assert (len(solved), report.total_vectors - len(solved)) == (solves, carried)


@pytest.mark.parametrize(
    "label, max_height, order, checked, carried",
    [
        # the origins are those of the reality solves
        ("B2", 5, None, 29, 11),
        ("G2", 7, None, 73, 42),
        ("D4", 5, None, 67, 253),
        ("D4", 5, (2, 1, 3, 4), 67, 253),
    ],
)
def test_membership_checked_once_per_origin(monkeypatch, label, max_height, order, checked, carried):
    member = shuffle.serre_membership
    calls = []
    monkeypatch.setattr(shuffle, "serre_membership", lambda elt: calls.append(elt) or member(elt))
    report = basis.scan(basis.GoodLyndonTable(cartan.parse(label), order), max_height, "invariants")
    assert report.total_violations == 0
    assert (len(calls), report.total_vectors - len(calls)) == (checked, carried)


def test_one_verdict_map_serves_the_whole_scan(monkeypatch):
    # origins are good words of the orbits' first weights, so they never
    # collide, and every weight reads and writes the same map
    reality, received, origins = basis._SCAN_CHECKS["reality"], [], set()

    def keeping(table, vectors, verdicts):
        received.append(verdicts)
        origins.update(origin for *_, origin in vectors)
        return reality(table, vectors, verdicts)

    monkeypatch.setitem(basis._SCAN_CHECKS, "reality", keeping)
    report = basis.scan(basis.GoodLyndonTable(cartan.parse("D4")), 5, "reality")
    assert len(received) == len(report.entries)
    assert all(verdicts is received[0] for verdicts in received)
    # one verdict per origin, as many as the pinned solves
    assert set(received[0]) == origins and len(origins) == 67


def test_a_datum_without_automorphisms_straightens_every_weight(monkeypatch):
    table = basis.GoodLyndonTable(cartan.parse("B2"))
    report, _, built = _scan_capturing(monkeypatch, table, 5)
    assert len(built) == len(report.entries)


# the A3 vectors of (0,1,1) are w[2,3] and w[3,2]; swapping letters 1 and 2,
# which does not fix A3, maps them onto w[1,3] and w[3,1] at (1,0,1), whose
# only good word is 3,1, so the image at 1,3 is never reached
SWAP_12 = """
from qshuffle import basis, cartan, shuffle
from qshuffle.basis import StraighteningFailure
table = basis.GoodLyndonTable(cartan.parse("A3"))
vectors = table._dual_canonical_weight_i((0, 1, 1))
images = [(g, basis._moved_elt((0, 2, 1, 3), table._idatum, elt)) for g, elt, *_ in vectors]
try:
    table._dual_canonical_weight_i((1, 0, 1), images)
except StraighteningFailure as exc:
    print(exc)
else:
    raise SystemExit("seeded by a map that does not fix the datum")
"""


def _run_optimized(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_a_letter_map_that_breaks_the_datum_raises_a_located_violation_under_optimization():
    assert "an image was never reached [A3 order 1,2,3 weight 1,0,1 word w[1,3]]" in _run_optimized(SWAP_12)


# Spoil the verdict of b*_{3,4} at (0,0,1,1) of D4, whose node 3 is the
# centre: the scan must report it, its reversal w[4,3] at its own good word,
# and the images of both under the automorphisms that move letter 4, at
# (0,1,1,0) and (1,0,1,0), and solve none of them again.
SPOILT_SOURCE = """
from qshuffle import basis, cartan, shuffle
from qshuffle.laurent import ONE
real = basis.GoodLyndonTable._is_real_i
solved = []

def spoilt(table, elt):
    solved.append(elt.weight)
    if elt.weight == (0, 0, 1, 1) and shuffle.max_word(elt) == (3, 4):
        return (3, 3, 4, 4), ONE
    return real(table, elt)

basis.GoodLyndonTable._is_real_i = spoilt
report = basis.scan(basis.GoodLyndonTable(cartan.parse("D4")), 3, "reality")
for e in report.entries:
    for v in e.violations:
        print(cartan.format_weight(e.weight), v["good_word"], v["kind"])
print("solved at", solved.count((0, 0, 1, 1)), solved.count((0, 1, 1, 0)), solved.count((1, 0, 1, 0)))
"""


def test_a_spoilt_verdict_reaches_the_reversal_and_the_images_under_optimization():
    assert _run_optimized(SPOILT_SOURCE).splitlines() == [
        "0,0,1,1 [3, 4] imaginary",
        "0,0,1,1 [4, 3] imaginary",
        "0,1,1,0 [2, 3] imaginary",
        "0,1,1,0 [3, 2] imaginary",
        "1,0,1,0 [1, 3] imaginary",
        "1,0,1,0 [3, 1] imaginary",
        "solved at 1 0 0",
    ]


# The sigma-image at (0,1,2,0) of b*_{3,4,3} = w[3,4,3] + [2] w[3,3,4] of D4
# is w[3,2,3] + [2] w[3,3,2]; a stray w[2,3,3] keeps its maximal word and its
# coefficient there, so construction takes it, but breaks the Serre relation
# at i=3, j=2.  Its origin is in U, so only the failed expansion makes the
# check test the image itself.
STRAY_WORD = """
from qshuffle import basis, cartan, shuffle
from qshuffle.laurent import ONE
from qshuffle.shuffle import ShuffleElt
moved, spoilt = basis._moved_elt, []

def stray(sigma, datum, elt):
    image = moved(sigma, datum, elt)
    if image.weight == (0, 1, 2, 0) and shuffle.max_word(image) == (3, 3, 2):
        image = image + ShuffleElt(datum, image.weight, {(2, 3, 3): ONE})
        spoilt.append(image)
    return image

basis._moved_elt = stray
report = basis.scan(basis.GoodLyndonTable(cartan.parse("D4")), 3, "invariants")
for e in report.entries:
    for v in e.violations:
        print(cartan.format_weight(e.weight), v["good_word"], v["kind"], v["witness"])
print(shuffle.serre_membership(spoilt[0]))
"""


def test_an_image_outside_u_is_reported_with_its_own_witness_under_optimization():
    *records, witness = _run_optimized(STRAY_WORD).splitlines()
    assert witness.startswith("relation i=3 j=2 ")
    assert records == [f"0,1,2,0 [3, 3, 2] not-in-subalgebra {witness}"]


# Spoil the membership of one source vector of D4, read in order 2,1,3,4, or
# the expansion of one vector: the first image in U of that source, the
# reversal w[4,3] of w[3,4] or the relabeling w[2] of w[4], or the spoilt
# image itself, breaks the symmetry and must stop the scan with a located
# violation, exit status 2.  So must an origin, w[3,4], that is in U but has
# no expansion.
SPOILT_CHECK = """
import contextlib, io
from qshuffle import basis, cli, shuffle
from qshuffle.shuffle import MembershipWitness
member, expand = shuffle.serre_membership, basis.GoodLyndonTable._expand_i

def spoilt(elt):
    if (elt.weight, shuffle.max_word(elt)) == {source}:
        return MembershipWitness(1, 2, (), (), "spoilt")
    return member(elt)

def unexpandable(table, elt):
    if (elt.weight, shuffle.max_word(elt)) == {image}:
        raise basis.NotInU("spoilt")
    return expand(table, elt)

shuffle.serre_membership, basis.GoodLyndonTable._expand_i = spoilt, unexpandable
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    code = cli.main(["scan", "D4", "--max-height", "2", "--check", "invariants", "--order", "2,1,3,4"])
print(code, err.getvalue())
"""


@pytest.mark.parametrize(
    "source, image, message, where",
    [
        ("((0, 0, 1, 1), (3, 4))", None, "image of w[3,4] lies in U, but its origin does not", "0,0,1,1 good word w[4,3]"),
        ("((0, 0, 0, 1), (4,))", None, "image of w[4] lies in U, but its origin does not", "0,1,0,0 good word w[2]"),
        (None, "((0, 0, 1, 1), (4, 3))", "image of w[3,4] has no dual PBW expansion", "0,0,1,1 good word w[4,3]"),
        (
            None,
            "((0, 0, 1, 1), (3, 4))",
            "w[3,4] lies in U, but has no dual PBW expansion: spoilt",
            "0,0,1,1 good word w[3,4]",
        ),
    ],
    ids=["reversal", "relabeling", "expansion", "origin"],
)
def test_a_spoilt_membership_raises_a_located_violation_under_optimization(source, image, message, where):
    out = _run_optimized(SPOILT_CHECK.replace("{source}", str(source)).replace("{image}", str(image)))
    assert out.startswith(f"2 internal error: TheoryViolation: {message} [D4 order 2,1,3,4 weight {where}]")


# The reversal (0, 3, 2, 1) of A3 maps the vectors w[1,2] and w[2,1] of
# (1,1,0) onto w[3,2] and w[2,3] at (0,1,1).  Adding the first to the second
# gives two images with maximal word 3,2; doubling the first gives w[3,2]
# the coefficient 2, where its kappa is 1.
SPOILT_IMAGES = """
from qshuffle import basis, cartan, shuffle
from qshuffle.basis import StraighteningFailure
table = basis.GoodLyndonTable(cartan.parse("A3"))
(_, b12, *_), (_, b21, *_) = table._dual_canonical_weight_i((1, 1, 0))
images = [((1, 2), basis._moved_elt((0, 3, 2, 1), table._idatum, elt)) for elt in ({sources})]
try:
    table._dual_canonical_weight_i((0, 1, 1), images)
except StraighteningFailure as exc:
    print(exc)
else:
    raise SystemExit("the spoilt images were taken")
"""


@pytest.mark.parametrize(
    "sources, message",
    [
        ("b12, b21 + b12", "two images have this maximal word [A3 order 1,2,3 weight 0,1,1 good word w[3,2]]"),
        ("b12.scaled(2), b21", "image's coefficient is not kappa [A3 order 1,2,3 weight 0,1,1 good word w[3,2]]"),
    ],
    ids=["duplicate", "kappa"],
)
def test_spoilt_images_raise_a_located_failure_under_optimization(sources, message):
    assert message in _run_optimized(SPOILT_IMAGES.replace("{sources}", sources))


def test_relabeling_by_a_missing_good_word_names_it():
    # (1,0,1) has one vector, (0,1,1) two good words: 1,3 is no root of A3,
    # but its image 2,3 is
    table = basis.GoodLyndonTable(cartan.parse("A3"))
    ((g, elt, *_),) = table._dual_canonical_weight_i((1, 0, 1))
    images = [(g, basis._moved_elt((0, 2, 1, 3), table._idatum, elt))]
    missing = r"no image has this maximal word .* weight 0,1,1 good word w\[2,3\]\]"
    with pytest.raises(StraighteningFailure, match=missing):
        table._dual_canonical_weight_i((0, 1, 1), images)


def test_the_scope_holds_the_last_weight_also_when_it_is_relabeled(monkeypatch):
    # (4,0,0) is the last weight of A3 <= 4 and the reversal's image of (0,0,4)
    table = basis.GoodLyndonTable(cartan.parse("A3"))
    _, captured, built = _scan_capturing(monkeypatch, table, 4)
    assert (4, 0, 0) not in built and (0, 0, 4) in built
    assert table._pbw_memo_weight == (4, 0, 0)
    fresh = basis.GoodLyndonTable(cartan.parse("A3"))._dual_canonical_weight_i((4, 0, 0))
    assert [(g, elt.weight, elt.terms, elt.terms[g]) for g, elt, _ in captured[-1]] == [
        (g, elt.weight, elt.terms, elt.terms[g]) for g, elt, _ in fresh
    ]
