"""Static checks on the package source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qshuffle"


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so a theory guard written as one
    # would silently vanish; guards raise TheoryViolation instead.
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 8
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


LOCATED = {"TheoryViolation", "StraighteningFailure", "InexactDivision"}


def test_every_theory_violation_in_basis_is_located():
    # every violation names the datum, order, weight and word it failed on,
    # and a re-raise `type(exc)(...)` keeps that rule for what it re-raises
    sites = [
        node
        for node in ast.walk(ast.parse((SRC / "basis.py").read_text()))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and (_name(node.exc.func) in LOCATED or ast.unparse(node.exc.func) == "type(exc)")
    ]
    assert len(sites) >= 20
    unlocated = [
        node.lineno
        for node in sites
        if not any(isinstance(n, ast.Call) and _name(n.func) == "_where" for arg in node.exc.args for n in ast.walk(arg))
    ]
    assert not unlocated, unlocated


def _modules_loaded_by(code):
    """Modules a fresh interpreter without site packages loads to run `code`."""
    script = f"import sys; before = set(sys.modules); {code}; print(*sorted(set(sys.modules) - before))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True)
    return set(done.stdout.splitlines()[-1].split())


# What argparse brought to every command-line process: its own import, and
# what its help formatter and messages load when a parser is built and run.
PARSER_MODULES = {"argparse", "re", "enum", "gettext", "warnings"}
PARSER_RUN_MODULES = PARSER_MODULES | {"shutil", "locale", "bz2", "lzma"}
# What namedtuple records, lru_cache memos, abstract-type annotations and
# SimpleNamespace brought, and the one module no scan runs.
RECORD_MODULES = {"collections", "collections.abc", "functools", "types", "operator", "reprlib", "keyword"}
SCAN_FREE = RECORD_MODULES | {"qshuffle.characters"}
SCAN = "from qshuffle.cli import main; main(['scan', 'A2', '--max-height', '2'])"


def test_import_budget():
    # every process pays for its imports before its first weight; the package
    # needs none of these, and the CLI loads json only to render JSON
    assert not _modules_loaded_by("import qshuffle") & {
        "dataclasses", "typing", "inspect", "re", "warnings", "json", "argparse", *SCAN_FREE
    }
    assert not _modules_loaded_by("import qshuffle.cli") & {
        "dataclasses", "typing", "inspect", "json", *PARSER_MODULES, *SCAN_FREE
    }


def test_a_scan_process_loads_no_parser_modules():
    loaded = _modules_loaded_by(SCAN)
    assert "qshuffle.cli" in loaded
    assert not loaded & (PARSER_RUN_MODULES | SCAN_FREE | {"json", "os"})


CHARACTER_NAMES = [
    "ShapeConstraintViolated", "ShiftedSkewShape", "SkewShape", "shifted_tableau_character", "skew_tableau_character"
]


def test_character_names_load_on_demand():
    import qshuffle
    from qshuffle import characters

    for name in CHARACTER_NAMES:
        assert getattr(qshuffle, name) is getattr(characters, name)
    assert qshuffle.characters is characters
    assert not hasattr(qshuffle, "no_such_name")
    with pytest.raises(AttributeError, match="^module 'qshuffle' has no attribute 'no_such_name'$"):
        qshuffle.no_such_name
    # a fresh process that asks for one name loads the module then, not before
    assert "qshuffle.characters" in _modules_loaded_by(f"from qshuffle import {CHARACTER_NAMES[0]}")
    assert "qshuffle.characters" in _modules_loaded_by("import qshuffle; qshuffle.characters")


# What `from qshuffle import *` binds: the public names of the package,
# its submodules and the names that load `characters` on demand.
PUBLIC_NAMES = [
    "CartanDatum", "DatumMismatch", "DualCanonicalVector", "DualPBWVector", "GoodLyndonTable", "GoodWord",
    "HomogeneityError", "InexactDivision", "LaurentPoly", "MembershipWitness", "NotAPerfectSquare", "NotGoodLyndon",
    "NotGoodWord", "NotInU", "ShapeConstraintViolated", "ShiftedSkewShape", "ShuffleElt", "SkewShape",
    "StraighteningFailure", "TheoryViolation", "UnsupportedRank", "ZeroElement", "bar_elt", "basis", "build",
    "cartan", "characters", "coefficient", "concat", "e_prime", "e_prime_dag", "exact_div", "is_real",
    "kostant_partitions", "laurent", "max_word", "parse", "positive_roots", "prepend_letter", "q_binom",
    "q_factorial", "q_int", "qshuffle", "scan", "serre_membership", "shifted_tableau_character", "shuffle",
    "shuffle_bracket", "sigma", "skew_tableau_character", "specialize_q1", "sqrt_exact", "tau", "words",
]


def test_star_import_and_dir_list_every_public_name():
    # in a fresh process, `dir` lists the names that load `characters`
    # without loading it, and the star import binds every public name
    script = (
        "import sys, qshuffle; print(*dir(qshuffle)); print('qshuffle.characters' in sys.modules); "
        "ns = {}; exec('from qshuffle import *', ns); print(*sorted(set(ns) - {'__builtins__'}))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True)
    listed, loaded, bound = done.stdout.splitlines()
    assert len(PUBLIC_NAMES) == 54 and bound.split() == PUBLIC_NAMES
    assert listed.split() == sorted(listed.split()) and loaded == "False"
    assert [name for name in listed.split() if not name.startswith("_")] == PUBLIC_NAMES


def test_a_character_process_loads_characters():
    loaded = _modules_loaded_by("from qshuffle.cli import main; main(['character', 'B2', '--shifted', '2,1'])")
    assert "qshuffle.characters" in loaded
    assert not loaded & RECORD_MODULES


# The module-level memos the package keeps, as `module.name`.  Every other
# per-weight or per-scan memo belongs to an object with a visible scope, such
# as the weight scope of `GoodLyndonTable`.
MODULE_MEMOS = {"shuffle._CACHE", "cartan._POSITIVE_ROOTS", "shuffle._SERRE_WEIGHTS"}
CONTAINERS = {"dict", "list", "set", "defaultdict", "OrderedDict", "deque", "Counter"}


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _is_empty_container(node):
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    if isinstance(node, ast.Call):
        return _name(node.func) in CONTAINERS and (not node.args or _name(node.func) == "defaultdict")
    return False


def _module_memos(path):
    """`module.name` of every memo decorator in the file and of every empty
    container its module body assigns."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                if _name(deco.func if isinstance(deco, ast.Call) else deco) in {"lru_cache", "cache"}:
                    found.add(f"{path.stem}.{node.name}")
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if node.value is not None and _is_empty_container(node.value):
            found.update(f"{path.stem}.{_name(t)}" for t in targets)
    return found


def test_every_module_memo_is_named():
    # a memo at module level lives as long as the process, with no owner to
    # clear it; a new one needs a reason and a line in MODULE_MEMOS
    found = set().union(*(_module_memos(path) for path in SRC.glob("*.py")))
    assert found == MODULE_MEMOS


# The module-level private functions of `laurent.py`.  `_mul_add` is the one
# loop that accumulates into a raw exponent map; a new raw-map loop needs a
# reason and a line here.
LAURENT_PRIVATE = {"_raw", "_mul_add", "_pack", "_unpack"}


def test_one_loop_accumulates_into_exponent_maps():
    tree = ast.parse((SRC / "laurent.py").read_text())
    private = {node.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}
    assert private == LAURENT_PRIVATE
    for path in SRC.glob("*.py"):
        used = {
            node.attr
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and _name(node.value) == "laurent" and node.attr.startswith("_")
        }
        assert used <= LAURENT_PRIVATE, path.name


# The memos of `GoodLyndonTable`, as attribute names: those kept for the
# table's life, and the weight scope, which `_enter` resets with its weight.
TABLE_MEMOS = {"_roots", "_kappa_cache"}
WEIGHT_SCOPE = {"_pbw_memo_weight", "_pbw_memo", "_reality_workspace"}


def _attribute_assignments(tree):
    """(function name, attribute, value) of every assignment to an attribute
    of `self`, one per target; a tuple of targets assigned from a tuple pairs
    each target with its own value."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                pairs = []
                for target in node.targets:
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                        pairs += zip(target.elts, node.value.elts)
                    else:
                        pairs += [(t, node.value) for t in getattr(target, "elts", [target])]
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                pairs = [(node.target, node.value)]
            else:
                continue
            found += [
                (fn.name, t.attr, value)
                for t, value in pairs
                if isinstance(t, ast.Attribute) and _name(t.value) == "self"
            ]
    return found


def test_every_table_memo_is_named():
    # a memo of the table starts empty in __init__; one that `_enter` resets
    # belongs to the weight scope and every other one lives as long as the
    # table, and no method assigns an attribute that is not one of them, so
    # a new memo needs a line in TABLE_MEMOS or WEIGHT_SCOPE
    tree = ast.parse((SRC / "basis.py").read_text())
    assigned = _attribute_assignments(tree)
    empty = {
        attr
        for fn, attr, value in assigned
        if fn == "__init__" and (_is_empty_container(value) or ast.unparse(value) == "None")
    }
    reset = {attr for fn, attr, _ in assigned if fn == "_enter"}
    assert reset == WEIGHT_SCOPE and empty - reset == TABLE_MEMOS and reset <= empty
    assert {attr for fn, attr, _ in assigned if fn != "__init__"} <= TABLE_MEMOS | WEIGHT_SCOPE


def _writes_outside(tree, owner):
    """`function:line` of every write to an attribute, or into a container
    held by one, and of every `setattr` call, in a function outside the
    class `owner`."""
    methods = {id(n) for c in tree.body if isinstance(c, ast.ClassDef) and c.name == owner for n in ast.walk(c)}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or id(fn) in methods:
            continue
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                targets = []
            for target in targets:
                for t in ast.walk(target) if isinstance(target, (ast.Tuple, ast.List)) else [target]:
                    while isinstance(t, ast.Subscript):
                        t = t.value
                    if isinstance(t, ast.Attribute):
                        found.append(f"{fn.name}:{node.lineno}")
            if isinstance(node, ast.Call) and _name(node.func) in {"setattr", "__setattr__"}:
                found.append(f"{fn.name}:{node.lineno}")
    return found


def test_only_the_table_writes_its_attributes():
    # the checks and the scan read the table's scope and call its methods,
    # so the memos have one writer and `_enter` resets all of them
    assert not _writes_outside(ast.parse((SRC / "basis.py").read_text()), "GoodLyndonTable")
    spoilt = """
def is_real(table, vec):
    table._reality_workspace = None
    setattr(table, "_pbw_memo", {})
    table._pbw_memo[()] = vec
    (table.x, y), z = vec
"""
    assert sorted(_writes_outside(ast.parse(spoilt), "GoodLyndonTable")) == [f"is_real:{n}" for n in range(3, 7)]


def test_every_mutant_applies_once_and_names_tests_that_exist():
    # tests/mutants.py runs no mutant here: each snippet must occur exactly
    # once in its file, so a refactor that moves the code updates the list,
    # and each killing test must still be defined where the id says
    from mutants import MUTANTS

    assert len(MUTANTS) >= 12 and len({m.name for m in MUTANTS}) == len(MUTANTS)
    root = SRC.parent.parent
    for m in MUTANTS:
        assert (SRC / m.file).read_text().count(m.old) == 1, m.name
        assert m.old != m.new and m.kill, m.name
        for node_id in m.kill:
            path, _, name = node_id.partition("::")
            tree = ast.parse((root / path).read_text())
            defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
            assert name.split("[")[0] in defined, (m.name, node_id)
