"""Every function in ``src/qbruhat/`` has a caller or a reason to exist.

A top-level function f of module m passes when some node outside its own
definition reads it:

* a ``Name`` f in m that no enclosing function shadows (binds f as a
  parameter or an assignment target);
* an import of f from m (``from .m import f``, ``from qbruhat.m import f``);
* an attribute f on m's name (``m.f``, ``qbruhat.m.f``);
* a string f in ``bench/tracer.py``, which wraps functions by name.

The imports and attributes count in ``src/qbruhat/`` and in ``bench/*.py``.
A ``Name`` f in another module, or a string elsewhere, is some other
binding, such as a local variable or a dict key.  A non-dunder method
passes only through an ``Attribute`` or a string constant in either
directory.  Prose does not count: a name that appears elsewhere only in a
docstring or a comment fails.  Otherwise the function must be
paper-facing API (``PAPER_API``) or a method that a library calls back
(``HOOKS``).  Methods are listed as ``Class.method``.  The two lists hold
only such functions: an entry that is not defined, or that some node
reads, fails too.  README's paper-facing sentence names exactly
``PAPER_API``.

Oracles, the reference implementations that tests compare the production
routes against, live in ``tests/oracles.py``: no function there may also be
defined in the package, and no module of the package may import from the
tests.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PAPER_API = {
    "ExactMatrix.entry",
    "a_descents",
    "canonical_cell_matrix",
    "classical_r",
    "in_tilted_schubert_cell",
    "increasing_path",
    "interpolate",
    "k_tilted_leq",
    "lattice_depth",
    "min_set",
    "parse_word",
    "permutation_matrix",
    "quantum_chevalley",
    "reduced_word",
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


def _method_names(tree):
    """The names of the ``Attribute`` nodes and string constants under tree,
    once per node."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
    return names


def _unshadowed_reads(tree):
    """The ids of the loaded ``Name`` nodes under tree that no enclosing
    function binds as a parameter or an assignment target."""
    reads = Counter()

    def visit(node, bound):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            bound = bound | {a.arg for a in params if a} | {
                n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            }
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
            reads[node.id] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, frozenset())
    return reads


def _qualified_reads(tree):
    """(module, name) for each import of a name from a module and each
    attribute on a module's name (``m.f`` or ``pkg.m.f``) under tree."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.rpartition(".")[2]
            for alias in node.names:
                reads[module, alias.name] += 1
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Name):
                reads[owner.id, node.attr] += 1
            elif isinstance(owner, ast.Attribute):
                reads[owner.attr, node.attr] += 1
    return reads


def _src():
    return {p.stem: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "qbruhat").glob("*.py"))}


def test_every_function_has_a_caller_or_a_reason():
    src = _src()
    bench = {p.stem: ast.parse(p.read_text()) for p in sorted((ROOT / "bench").glob("*.py"))}
    trees = [*src.values(), *bench.values()]
    qualified = sum((_qualified_reads(tree) for tree in trees), Counter())
    methods = sum((_method_names(tree) for tree in trees), Counter())
    traced = {
        node.value
        for node in ast.walk(bench["tracer"])
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    unreferenced = set()
    for module, tree in src.items():
        local = _unshadowed_reads(tree)
        for listed, name, node in _definitions(tree):
            if "." in listed:
                read = methods[name] > _method_names(node)[name]
            else:
                read = (
                    local[name] > _unshadowed_reads(node)[name]
                    or qualified[module, name] > _qualified_reads(node)[module, name]
                    or name in traced
                )
            if not read:
                unreferenced.add(listed)
    assert unreferenced - PAPER_API - HOOKS == set()
    # every entry names a defined function that nothing reads
    assert (PAPER_API | HOOKS) - unreferenced == set()


def test_a_name_that_only_spells_a_function_does_not_read_it():
    # a parameter, a local variable and a dict key named like
    # rpolyhecke.trace are no readers of it; a free name, an import and an
    # attribute on the module are
    tree = ast.parse(
        "def f(trace):\n    return trace\n"
        "def g():\n    trace = 1\n    return {'trace': trace}\n"
        "def h():\n    return trace(1)\n"
        "x = rpolyhecke.trace\n"
        "from .rpolyhecke import trace_product\n"
    )
    assert _unshadowed_reads(tree)["trace"] == 1
    assert _qualified_reads(tree)["rpolyhecke", "trace"] == 1
    assert _qualified_reads(tree)["rpolyhecke", "trace_product"] == 1


def test_oracles_stay_out_of_the_package():
    src = _src().values()
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


def test_readme_lists_the_paper_api():
    # the README's paper-facing sentence names each entry of PAPER_API once,
    # and nothing else outside its parenthetical remarks
    text = " ".join((ROOT / "README.md").read_text().split())
    start = text.index("The paper-facing API is there")
    sentence = re.sub(r"\([^)]*\)", "", text[start:text.index(". ", start)])
    assert sorted(re.findall(r"`([^`]+)`", sentence)) == sorted(PAPER_API)
