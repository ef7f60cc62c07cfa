"""Source hygiene, in place of a linter: no unused top-level imports, no
module importing another module's private names, no public name in a
pipeline module that nothing in the package uses, no oracle that nothing
checks, no pipeline module but ``channel`` naming ``steering``, no
default that every call leaves in place, and no growth of ``src/rispart``
past the seed's size."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/rispart/*.py"), *ROOT.glob("tests/*.py"),
                *ROOT.glob("tools/*.py")])
PIPELINE = ("channel", "partition", "asymptotic", "solver", "finite",
            "harness")
# Kept only for a paper result that a test checks: the large-surface gain
# limit.  Each entry must be one that nothing under src/rispart uses.
PAPER_ONLY = {"gain_asymptotic"}
# Lines of src/rispart/*.py in the seed: a change that adds code offsets it
SEED_SRC_LINES = 2791
# Defaulted parameters of pipeline functions that no call under src/rispart
# passes, each kept for a reason of its own.
DEFAULT_ONLY = {
    # the tests drive the sampler to exhaustion through it
    "channel.realize_channels.max_tries",
    # the paper's common phases as a design input, in place of random ones
    "finite.adapt_solution.psi",
}


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
    dead = [node.name for stem in PIPELINE
            for i, node in enumerate(trees[stem].body)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and not any(node.name in names
                        for key, names in uses if key != (stem, i))]
    assert sorted(set(dead) - PAPER_ONLY) == [], dead
    assert PAPER_ONLY <= set(dead), "an allowlisted paper-only name is used"


def test_every_oracle_has_a_consumer():
    # Every public top-level function and class of ``oracle`` is a
    # reference that something checks against: a test, or ``checks``,
    # which runs the acceptance criteria.
    oracle = ast.parse((ROOT / "src/rispart/oracle.py").read_text())
    consumers = [*ROOT.glob("tests/*.py"), ROOT / "src/rispart/checks.py"]
    used = set().union(*(_referenced(ast.parse(p.read_text()))
                         for p in consumers))
    unchecked = [node.name for node in oracle.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and not node.name.startswith("_")
                 and node.name not in used]
    assert not unchecked, unchecked


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


def test_src_below_seed_size():
    lines = sum(len(p.read_text().splitlines())
                for p in ROOT.glob("src/rispart/*.py"))
    assert lines < SEED_SRC_LINES, lines


def _defaulted(tree: ast.Module):
    """``(name, parameter, position)`` of each defaulted parameter of the
    public functions and methods of a module; ``position`` counts the
    positional arguments a call needs to pass it (None: keyword only)."""
    for node in tree.body:
        methods = isinstance(node, ast.ClassDef)
        for func in node.body if methods else [node]:
            if (not isinstance(func, ast.FunctionDef)
                    or func.name.startswith("_")):
                continue
            args = func.args
            positional = [*args.posonlyargs, *args.args]
            # a method's call passes its self or cls implicitly
            skip = methods and not any(
                getattr(d, "id", None) == "staticmethod"
                for d in func.decorator_list)
            for i, arg in enumerate(positional):
                if i >= len(positional) - len(args.defaults):
                    yield func.name, arg.arg, i + 1 - skip
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield func.name, arg.arg, None


def test_no_default_only_keywords():
    # Every defaulted parameter of a public pipeline function is passed,
    # by keyword or by position, by some call under src/rispart: a
    # default that every call leaves in place is a setting nothing uses.
    calls = [node for p in ROOT.glob("src/rispart/*.py")
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Call)]

    def passed(name, param, position):
        for call in calls:
            callee = getattr(call.func, "id", getattr(call.func, "attr", ""))
            if callee != name:
                continue
            if any(k.arg in (param, None) for k in call.keywords):
                return True
            if any(isinstance(a, ast.Starred) for a in call.args) or (
                    position is not None and len(call.args) >= position):
                return True
        return False

    unused = [f"{stem}.{name}.{param}" for stem in PIPELINE
              for name, param, position in _defaulted(
                  ast.parse((ROOT / f"src/rispart/{stem}.py").read_text()))
              if not passed(name, param, position)]
    assert sorted(set(unused) - DEFAULT_ONLY) == [], unused
    assert DEFAULT_ONLY <= set(unused), "an allowlisted default is passed"
