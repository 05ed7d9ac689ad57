"""Checks on the package source itself."""

import ast
from collections import Counter
from pathlib import Path

import fgo

SRC = Path(fgo.__file__).parent

# public names that only tests and outside programs call, and why
ALLOWED = {
    "io.read_fm1",  # the reader of the format `fgo run` writes
    # the reader of the PGMs `fgo run` writes; images come in as PPM only
    "io.read_pgm",
    # the FGCA of full final maps, for library callers; `fgo run` pools the
    # decisions its correctness image is drawn from with `fgca_of`
    "evaluation.compute_fgca",
}


def referenced_names(node) -> Counter:
    """How often each name is read as a variable or an attribute in ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_public_definition_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((referenced_names(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        # a reference inside the definition itself does not count
        and everywhere[node.name] == referenced_names(node)[node.name]
    ]
    assert sorted(unused) == sorted(ALLOWED)
