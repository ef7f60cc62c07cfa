"""Source hygiene, in place of a linter: no unused top-level imports, no
module importing another module's private names, no public name in a
pipeline module that nothing in the package uses, and no pipeline module
but ``channel`` naming ``steering``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/rispart/*.py"), *ROOT.glob("tests/*.py")])
PIPELINE = ("channel", "partition", "asymptotic", "solver", "finite",
            "harness")
# Kept only for a paper result that a test checks: the large-surface gain
# limit, and the tile plans that criterion 10 builds with
# ``TilePlan.from_partition_plan``.
PAPER_ONLY = {"gain_asymptotic", "TilePlan"}


def _ids(paths):
    return [str(p.relative_to(ROOT)) for p in paths]


def _exported(tree: ast.Module) -> set[str]:
    """Names listed in a module-level ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("path", FILES, ids=_ids(FILES))
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(set(bound) - used - _exported(tree))
    assert not unused, [f"line {bound[name]}: {name}" for name in unused]


@pytest.mark.parametrize("path", FILES, ids=_ids(FILES))
def test_no_private_imports_from_other_modules(path):
    # a module's own test file (tests/test_<mod>.py) may reach its privates
    own = path.stem.removeprefix("test_")
    private = [f"line {node.lineno}: {node.module}.{alias.name}"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").startswith("rispart.")
               and node.module != f"rispart.{own}"
               for alias in node.names if alias.name.startswith("_")]
    assert not private, private


def _referenced(node: ast.AST) -> set[str]:
    """Bare names and attribute names a node refers to."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_no_dead_public_names():
    # Every public top-level function and class of a pipeline module is
    # referenced by some other top-level statement under src/rispart (the
    # oracle, the checks and the CLI count; the package root's re-exports
    # do not).
    trees = {p.stem: ast.parse(p.read_text())
             for p in ROOT.glob("src/rispart/*.py") if p.stem != "__init__"}
    uses = [((stem, i), _referenced(node)) for stem, tree in trees.items()
            for i, node in enumerate(tree.body)]
    dead = [f"{stem}.{node.name}" for stem in PIPELINE
            for i, node in enumerate(trees[stem].body)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in PAPER_ONLY
            and not any(node.name in names
                        for key, names in uses if key != (stem, i))]
    assert not dead, dead


def test_no_steering_matrix_in_the_pipeline():
    # A steering matrix has an M-sized axis.  Outside ``channel``, which
    # defines it, the pipeline works with the closed-form Grams of
    # ``channel.steering_gram``; only the oracle builds the matrices.
    users = []
    for stem in PIPELINE:
        tree = ast.parse((ROOT / f"src/rispart/{stem}.py").read_text())
        names = _referenced(tree) | {alias.name for alias in ast.walk(tree)
                                     if isinstance(alias, ast.alias)}
        if stem != "channel" and "steering" in names:
            users.append(stem)
    assert not users, users
