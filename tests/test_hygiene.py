"""Source hygiene, in place of a linter: no unused top-level imports, and
no module importing another module's private names."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/rispart/*.py"), *ROOT.glob("tests/*.py")])


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
