"""Mutation runner: break the library one known way at a time and check that
the named tests notice.

Each mutant replaces one exact snippet, which must occur once in its file
under `src/qshuffle/`, and names the test ids that must kill it.  The runner
copies the source tree (`src/`, `tests/` and the files the tests read) to a
temporary directory per mutant, applies the mutant there and runs

    python [-O] -m pytest -x -q -p no:cacheprovider <ids>

It prints `killed`, `survived` or `timed out` per mutant, then one JSON
summary line, and exits 1 if any mutant survives or the unmutated tests fail.
Stdlib only; pytest does not collect this file.

    python tests/mutants.py
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")
# address space per process of a pytest run, its subprocesses included: a
# mutant that grows without end fails with MemoryError instead of taking the
# machine's memory
MEMORY_LIMIT = 1 << 30


class Mutant(NamedTuple):
    name: str
    file: str  # under src/qshuffle/
    old: str  # occurs exactly once in the file
    new: str
    kill: tuple[str, ...]  # pytest node ids relative to the repository root
    timeout: float = 120.0  # seconds for the whole pytest run
    optimize: bool = False  # run pytest under `python -O`


MUTANTS = (
    Mutant(
        "sigma-twist-sign",
        "shuffle.py",
        "{w: c.bar().shifted(-n) for w, c in f.terms.items()}",
        "{w: c.bar().shifted(n) for w, c in f.terms.items()}",
        (
            "tests/test_accumulation.py::test_twists_match_naive_sum",
            "tests/test_shuffle.py::test_tau_bar_sigma_examples",
        ),
    ),
    Mutant(
        "bar-elt-keeps-words",
        "shuffle.py",
        "    return tau(sigma(f))\n",
        "    return sigma(f)\n",
        ("tests/test_accumulation.py::test_twists_match_naive_sum",),
    ),
    Mutant(
        "mul-add-stores-zero-sum",
        "laurent.py",
        "            s = acc.get(e, 0) + c1 * c2\n            if s:\n                acc[e] = s\n"
        "            else:\n                del acc[e]\n",
        "            acc[e] = acc.get(e, 0) + c1 * c2\n",
        ("tests/test_accumulation.py::test_mul_add_matches_plain_sums",),
    ),
    Mutant(
        "scaled-into-keeps-cancelled-word",
        "shuffle.py",
        "        laurent._mul_add(d, scale, p)\n        if not d:\n            del acc[w]\n",
        "        laurent._mul_add(d, scale, p)\n",
        ("tests/test_accumulation.py::test_add_matches_naive_sum",),
    ),
    Mutant(
        "scaled-into-shares-operand-map",
        "shuffle.py",
        "        d = acc.setdefault(w, {})\n",
        "        if w not in acc and scale == {0: 1}:\n            acc[w] = p\n            continue\n"
        "        d = acc.setdefault(w, {})\n",
        ("tests/test_accumulation.py::test_add_and_scaled_share_no_map_of_an_operand",),
    ),
    Mutant(
        # maps that share their exponents but not their coefficients become
        # one cached map
        "memo-maps-interned-by-exponents",
        "shuffle.py",
        "_MAPS.setdefault(tuple(p.items()), p)",
        "_MAPS.setdefault(tuple(p), p)",
        (
            "tests/test_golden.py::test_scan_stdout_matches_the_golden_under_optimization[b2-reality]",
            "tests/test_output_digests.py::test_stdout_digest[scan G2 --max-height 5 --check reality]",
            "tests/test_kernel.py::test_the_memo_holds_each_distinct_word_and_map_once",
        ),
    ),
    Mutant(
        # the second branch then accumulates into a map that other memo
        # entries share
        "memo-first-branch-hands-over-cached-map",
        "shuffle.py",
        "{u + (a,): dict(p) for u, p in",
        "{u + (a,): p for u, p in",
        (
            "tests/test_golden.py::test_scan_stdout_matches_the_golden_under_optimization[b2-reality]",
            "tests/test_output_digests.py::test_stdout_digest[scan G2 --max-height 5 --check reality]",
            "tests/test_kernel.py::test_the_memo_holds_each_distinct_word_and_map_once",
        ),
    ),
    Mutant(
        "straightening-adds-correction",
        "basis.py",
        "shuffle._scaled_into(acc, shuffle._maps(b_pivot), (-gamma).terms)",
        "shuffle._scaled_into(acc, shuffle._maps(b_pivot), gamma.terms)",
        ("tests/test_kernel.py::test_kernel_agrees_with_reference[A3-6-None]",),
    ),
    Mutant(
        "reality-residual-shift-sign",
        "basis.py",
        "residual = {h: {e - k: x for e, x in c.items()} for h, c in square.items()}",
        "residual = {h: {e + k: x for e, x in c.items()} for h, c in square.items()}",
        ("tests/test_check_layer.py::test_reality_scan_leaves_one_weight_in_scope",),
    ),
    Mutant(
        "packed-width-fixed-64",
        "shuffle.py",
        "width = bound.bit_length() + 1",
        "width = 64",
        (
            "tests/test_product_coefficients.py"
            "::test_extracted_coefficients_are_exact_with_coefficients_up_to_2_to_the_100",
        ),
    ),
    Mutant(
        # without the early stop the affine closure never ends: its subprocess
        # fails at the memory limit or at the test's own 60 s timeout, so the
        # runner waits longer than that
        "positive-roots-no-early-stop",
        "cartan.py",
        "        if len(roots) > expected:\n            break\n",
        "",
        ("tests/test_cartan.py::test_a_diagram_of_affine_type_raises_instead_of_hanging",),
        timeout=150.0,
    ),
    Mutant(
        # the remainder never shrinks, so the division loops until the timeout
        "exact-div-adds",
        "laurent.py",
        "_mul_add(rem, {qe: -qc}, d.terms)",
        "_mul_add(rem, {qe: qc}, d.terms)",
        ("tests/test_laurent.py::test_exact_div_examples",),
        timeout=30.0,
    ),
    Mutant(
        # an assert guards nothing under -O, so the division runs on past an
        # inexact step
        "exact-div-guard-as-assert",
        "laurent.py",
        '        if r:\n            raise InexactDivision(f"({p}) is not divisible by ({d})")\n',
        '        assert not r, f"({p}) is not divisible by ({d})"\n',
        ("tests/test_laurent.py::test_exact_div_examples",),
        optimize=True,
    ),
    Mutant(
        "located-raise-without-where",
        "basis.py",
        "raise StraighteningFailure(f\"image's coefficient is not kappa {self._where(g)}\")",
        "raise StraighteningFailure(\"image's coefficient is not kappa\")",
        (
            "tests/test_source.py::test_every_theory_violation_in_basis_is_located",
            "tests/test_reversal.py::test_a_reversed_image_whose_coefficient_is_not_kappa_raises",
        ),
    ),
    Mutant(
        "theory-violation-exits-1",
        "cli.py",
        "    except UsageError as exc:\n",
        "    except (UsageError, TheoryViolation) as exc:\n",
        ("tests/test_cli.py::test_internal_errors_exit_2_and_name_the_class",),
    ),
    Mutant(
        "root-record-not-stored",
        "basis.py",
        "hit = self._roots[l] = r, elt, kappa, d",
        "hit = r, elt, kappa, d",
        ("tests/test_basis.py::test_scans_build_each_lyndon_bracket_once_per_table",),
    ),
    Mutant(
        "reality-verdict-not-carried",
        "basis.py",
        "        if origin not in verdicts:\n            verdicts[origin] = table._is_real_i(elt) is None\n",
        "        if True:\n            verdicts[origin] = table._is_real_i(elt) is None\n",
        ("tests/test_scan_orbits.py::test_reality_solves_one_vector_per_origin",),
    ),
    Mutant(
        "membership-verdict-not-carried",
        "basis.py",
        "        if origin not in verdicts or expansion is None or not verdicts[origin]:\n",
        "        if True:\n",
        ("tests/test_scan_orbits.py::test_membership_checked_once_per_origin",),
    ),
    Mutant(
        "image-in-u-with-origin-outside-accepted",
        "basis.py",
        "            if expansion is None or not verdicts[origin]:\n",
        "            if expansion is None:\n",
        ("tests/test_scan_orbits.py::test_a_spoilt_membership_raises_a_located_violation_under_optimization",),
    ),
    Mutant(
        "image-not-in-u-raises",
        "basis.py",
        "        except NotInU as exc:\n            expansion, failure = None, exc\n",
        "        except NotInU as exc:\n            if g != origin:\n                raise\n"
        "            expansion, failure = None, exc\n",
        ("tests/test_scan_orbits.py::test_an_image_outside_u_is_reported_with_its_own_witness_under_optimization",),
    ),
    Mutant(
        "kappa-read-off-the-root-vector",
        "basis.py",
        "                _, _, kappa_l, d_l = self._root_i(l)\n",
        "                _, e_l, _, d_l = self._root_i(l)\n                kappa_l = e_l.terms[l]\n",
        ("tests/test_dual_pbw.py::test_a_dual_root_vector_off_its_stored_kappa_fails_the_guard",),
    ),
    Mutant(
        "automorphisms-ignore-symmetrizers",
        "cartan.py",
        "all(d[s[i]] == d[i] and tuple(a[s[i]][c] for c in s) == a[i] for i in range(r))",
        "all(tuple(a[s[i]][c] for c in s) == a[i] for i in range(r))",
        ("tests/test_cartan.py::test_automorphisms_keep_the_symmetrizers",),
    ),
    Mutant(
        "cli-ambiguous-prefix-accepted",
        "cli.py",
        "    if len(matches) > 1:\n",
        "    if len(matches) > 2:\n",
        ("tests/test_cli_parser.py::test_edge_cases",),
    ),
    Mutant(
        "half-split-twist-off-by-one",
        "basis.py",
        "shift = laurent.monomial(b * c * d_l)",
        "shift = laurent.monomial((b * c + 1) * d_l)",
        (
            "tests/test_check_layer.py::test_every_row_is_the_product_of_the_full_group_vectors[B2-None-5-0]",
            "tests/test_golden.py::test_scan_stdout_matches_the_golden_under_optimization[b2-reality]",
        ),
    ),
    Mutant(
        "enter-clears-the-group-memo",
        "basis.py",
        "            self._pbw_memo_weight, self._pbw_memo, self._reality_workspace = nui, {}, None\n",
        "            self._pbw_memo_weight, self._pbw_memo, self._reality_workspace = nui, {}, None\n"
        "            self._group_memo.clear()\n",
        (
            "tests/test_check_layer.py::test_entering_another_weight_drops_the_products_and_the_workspace_and_keeps_the_groups",
            "tests/test_check_layer.py::test_invariants_scan_builds_each_dual_pbw_vector_once_per_weight",
        ),
    ),
    Mutant(
        "multi-group-word-in-the-group-memo",
        "basis.py",
        "(self._group_memo if len(factors) == 1 else self._pbw_memo)[wi] = elt",
        "(self._group_memo if factors else self._pbw_memo)[wi] = elt",
        (
            "tests/test_check_layer.py::test_expansion_memo_holds_one_weight_only",
            "tests/test_dual_pbw.py::test_every_factor_group_vector_is_the_normalized_power[B2-6]",
        ),
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _pytest(tree: Path, ids: tuple[str, ...], timeout: float, optimize: bool) -> tuple[str, str]:
    """('passed' | 'failed' | 'timed out' | 'error', output) of one pytest run
    in tree, whose whole process group is killed at the timeout."""
    cmd = [sys.executable, *(["-O"] if optimize else []), "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ids]
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen(
        cmd,
        cwd=tree,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
        preexec_fn=_limit_memory,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return "timed out", out
    # pytest exits 1 when a test failed; any other nonzero code is a run that went wrong
    return {0: "passed", 1: "failed"}.get(proc.returncode, "error"), out


def apply(mutant: Mutant, tree: Path) -> None:
    path = tree / "src" / "qshuffle" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: the snippet occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="qshuffle-mutant-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        apply(mutant, tree)
        result, out = _pytest(tree, mutant.kill, mutant.timeout, mutant.optimize)
    outcome = {"failed": "killed", "passed": "survived"}.get(result, result)
    if outcome in ("survived", "error"):
        print(out[-2000:], file=sys.stderr)
    return outcome


def baseline(mutants: tuple[Mutant, ...]) -> bool:
    """Whether the killing tests pass on the unmutated tree, with and
    without -O as the mutants ask."""
    ok = True
    with tempfile.TemporaryDirectory(prefix="qshuffle-mutant-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        for optimize in sorted({m.optimize for m in mutants}):
            ids = tuple(dict.fromkeys(i for m in mutants if m.optimize == optimize for i in m.kill))
            result, out = _pytest(tree, ids, max(m.timeout for m in mutants) * 2, optimize)
            if result != "passed":
                print(f"baseline{' -O' if optimize else ''}: {result}\n{out[-2000:]}", file=sys.stderr)
                ok = False
    return ok


def main() -> int:
    start = time.perf_counter()
    if not baseline(MUTANTS):
        print(json.dumps({"baseline": "failed"}))
        return 1
    outcomes = {}
    for m in MUTANTS:
        t0 = time.perf_counter()
        outcomes[m.name] = run(m)
        print(f"{outcomes[m.name]:>9}  {m.name}  ({time.perf_counter() - t0:.1f} s)", flush=True)
    counts = {k: sum(v == k for v in outcomes.values()) for k in ("killed", "timed out", "survived", "error")}
    summary = {**counts, "mutants": len(MUTANTS), "wall_s": round(time.perf_counter() - start, 1)}
    summary["surviving"] = [n for n, v in outcomes.items() if v in ("survived", "error")]
    print(json.dumps(summary))
    return 1 if summary["surviving"] else 0


if __name__ == "__main__":
    sys.exit(main())
