"""Every function in ``src/qbruhat/`` has a caller or a reason to exist.

A top-level function or a non-dunder method passes when its name appears
in some ``src/qbruhat/`` line outside its own definition, or in some
``bench/*.py`` file.  Otherwise it must be paper-facing API (``PAPER_API``)
or an oracle that tests compare the production routes against
(``ORACLES``).  The scan matches whole words in the text, not call sites,
so a name that appears elsewhere only in prose (a docstring or a comment)
passes too.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PAPER_API = {
    "canonical_cell_matrix",
    "classical_r",
    "cohomology_class_T",
    "in_tilted_schubert_cell",
    "increasing_path",
    "interpolate",
    "k_tilted_leq",
    "min_set",
    "parse_word",
    "permutation_matrix",
    "quantum_chevalley",
    "strong_lifting_witness",
    "witness_a_leq",
}

ORACLES = {
    "classical_monk",
    "count_total_flags",
    "hecke_gen",
    "hecke_gen_inverse",
    "sdot_inverse_matrix",
    "sdot_matrix",
    "x_matrix",
    "y_matrix",
}


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node
        elif isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not (
                    m.name.startswith("__") and m.name.endswith("__")
                ):
                    yield m


def test_every_function_has_a_caller_or_a_reason():
    sources = {p: p.read_text() for p in sorted((ROOT / "src" / "qbruhat").glob("*.py"))}
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "bench").glob("*.py")))
    defined, unreferenced = set(), set()
    for path, text in sources.items():
        lines = text.splitlines()
        for node in _definitions(ast.parse(text)):
            defined.add(node.name)
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            rest = "\n".join(lines[:first - 1] + lines[node.end_lineno:])
            others = (t for other, t in sources.items() if other != path)
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(t) for t in (rest, bench, *others)):
                unreferenced.add(node.name)
    assert unreferenced - PAPER_API - ORACLES == set()
    assert (PAPER_API | ORACLES) - defined == set()  # no entry outlives its function
