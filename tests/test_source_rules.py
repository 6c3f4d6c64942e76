"""Rules that the package source itself must keep."""

import ast
import pathlib

import delaystab

SRC = pathlib.Path(delaystab.__file__).parent


def test_package_source_has_no_assert_statements():
    # `python -O` strips assert statements, so a runtime check written as
    # one would quietly go away; checks raise real exceptions instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
