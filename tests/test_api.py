"""The public API: ``__all__`` is exactly what the package binds."""

import ast
from pathlib import Path

import pseudosphere as ps


def _bound_public_names():
    """Public names that ``pseudosphere/__init__.py`` imports or assigns."""
    tree = ast.parse(Path(ps.__file__).read_text(encoding="utf-8"))
    names = set()
    for statement in tree.body:
        if isinstance(statement, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in statement.names)
        elif isinstance(statement, ast.Assign):
            names.update(t.id for t in statement.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_all_names_resolve():
    assert len(ps.__all__) == len(set(ps.__all__))
    for name in ps.__all__:
        assert getattr(ps, name) is not None, name


def test_all_matches_bound_names():
    assert set(ps.__all__) == _bound_public_names()
