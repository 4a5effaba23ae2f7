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


def test_only_cli_knows_the_artifact_format():
    # reports are plain dataclasses; cli alone serializes them
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                modules = []
            if path.name != "cli.py" and "json" in modules:
                found.append(f"{path.name}:{node.lineno} imports json")
            if isinstance(node, ast.FunctionDef) and node.name in ("to_json_dict", "to_csv_rows"):
                found.append(f"{path.name}:{node.lineno} defines {node.name}")
    assert not found, found
