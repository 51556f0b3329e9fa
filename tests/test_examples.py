"""The README library quickstart and the demo scripts run as documented."""

import ast
import runpy

import pytest

from conftest import ROOT, readme_block


def test_readme_library_quickstart_values():
    # each bare expression in the block is followed by a comment that
    # opens with the value it shows
    block = readme_block("## Library quickstart", "```python")
    lines = block.splitlines()
    namespace = {}
    shown = []
    for statement in ast.parse(block).body:
        code = ast.get_source_segment(block, statement)
        if not isinstance(statement, ast.Expr):
            exec(code, namespace)
            continue
        value = str(eval(code, namespace))
        comment = lines[statement.end_lineno - 1].split("#", 1)[1].strip()
        assert comment.startswith(value), (code, value, comment)
        shown.append(value)
    assert shown == ["(2, 0)", "VanishesToOrder(4)", "-2/3", "True"]


@pytest.mark.parametrize(
    "path", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.name
)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
