"""The statement collector of ``tools/lines.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "lines.py"
_spec = importlib.util.spec_from_file_location("lines", TOOL)
lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lines)

TWO_BRANCHES = '''\
def pick(flag):
    """One branch per flag."""
    if flag:
        return "taken"
    return "untaken"
'''


def test_untaken_branch_reported(tmp_path):
    path = tmp_path / "two_branches.py"
    path.write_text(TWO_BRANCHES)

    def run():
        namespace = {}
        exec(compile(TWO_BRANCHES, str(path), "exec"), namespace)
        assert namespace["pick"](True) == "taken"

    assert lines.statements(path) == {1, 3, 4, 5}  # not the docstring
    assert lines.never_ran(run, [path]) == [(path, 5)]
