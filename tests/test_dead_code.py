"""Every function in ``src/qbruhat/`` has a caller or a reason to exist.

A top-level function passes when some AST node names it: a ``Name``, an
``Attribute``, an import alias, or a string constant equal to the name
(``bench/tracer.py`` wraps functions by name).  A non-dunder method passes
only through an ``Attribute`` or a string constant: a bare name equal to
a method's is some other binding, such as a local variable.
The node must lie in ``src/qbruhat/`` outside the function's own
definition, or in some ``bench/*.py`` file.  Prose does not count: a name
that appears elsewhere only in a docstring or a comment fails.  Otherwise
the function must be paper-facing API (``PAPER_API``) or a method that a
library calls back (``HOOKS``).  Methods are listed as ``Class.method``.

Oracles, the reference implementations that tests compare the production
routes against, live in ``tests/oracles.py``: no function there may also be
defined in the package, and no module of the package may import from the
tests.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PAPER_API = {
    "ExactMatrix.entry",
    "a_descents",
    "canonical_cell_matrix",
    "classical_r",
    "cohomology_class_T",
    "in_tilted_schubert_cell",
    "interpolate",
    "k_tilted_leq",
    "lattice_depth",
    "min_set",
    "parse_word",
    "permutation_matrix",
    "quantum_chevalley",
    "reflection_order_from_word",
    "strong_lifting_witness",
    "witness_a_leq",
}

HOOKS = {
    "_Parser.error",  # argparse reports usage errors through it
}


def _definitions(tree):
    """(listed name, bare name, node) of each top-level function and
    non-dunder method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not (
                    m.name.startswith("__") and m.name.endswith("__")
                ):
                    yield f"{node.name}.{m.name}", m.name, m


def _names(tree, method=False):
    """Every name that a node under tree names, once per node; for a
    method, only the names of ``Attribute`` nodes and string constants."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
        elif method:
            continue
        elif isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
    return names


def _src():
    return [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "qbruhat").glob("*.py"))]


def test_every_function_has_a_caller_or_a_reason():
    src = _src()
    bench = [ast.parse(p.read_text()) for p in sorted((ROOT / "bench").glob("*.py"))]
    named = {
        method: sum((_names(tree, method) for tree in src + bench), Counter())
        for method in (False, True)
    }
    defined, unreferenced = set(), set()
    for tree in src:
        for listed, name, node in _definitions(tree):
            defined.add(listed)
            method = "." in listed
            if named[method][name] == _names(node, method)[name]:
                unreferenced.add(listed)
    assert unreferenced - PAPER_API - HOOKS == set()
    # no entry outlives its function
    assert (PAPER_API | HOOKS) - defined == set()


def test_oracles_stay_out_of_the_package():
    src = _src()
    defined = {name for tree in src for _, name, _ in _definitions(tree)}
    oracles = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    assert {name for _, name, _ in _definitions(oracles)} & defined == set()
    imported = set()
    for tree in src:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
    assert {m for m in imported if m.partition(".")[0] in ("tests", "oracles")} == set()
