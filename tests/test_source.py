"""Properties of the package source itself."""

import ast
import pathlib

import thermoplate

PACKAGE = pathlib.Path(thermoplate.__file__).parent


def test_no_assert_statements():
    # python -O strips assert, so validation must raise instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"
