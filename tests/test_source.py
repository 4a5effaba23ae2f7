"""Properties of the package source itself."""

import ast
import pathlib
import re

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


def test_commands_return_their_artifacts():
    # every cmd_* takes cfg alone and writes nothing; main's one writer does
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert len(commands) == 9
    found = []
    for node in commands:
        params = [a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]
        if params != ["cfg"] or node.args.vararg or node.args.kwarg:
            found.append(f"{node.name} takes {params}")
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            fn = call.func
            if isinstance(fn, ast.Name) and fn.id == "open":
                found.append(f"{node.name}:{call.lineno} calls open")
            if isinstance(fn, ast.Attribute) and fn.attr == "save_state":
                found.append(f"{node.name}:{call.lineno} calls save_state")
    assert not found, found


#: definitions that nothing in the package references, each with its reason
UNCALLED = {
    "DiscreteGenerator.matrix": "the dense oracle; the perfbench tracer reads it",
    "_Parser.error": "argparse calls it",
    "laplace_transform_error": "acceptance oracle of the torus semigroup",
    "modal_decay_fit": "acceptance oracle of the torus decay",
    "determinant_pair": "acceptance oracle of the determinant factorizations",
    "load_state": "the reader of the states that evolve writes",
}


def _definitions(node, prefix=""):
    """(qualified name, node) of every def and class below node, methods as Class.name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


def test_every_function_has_a_caller():
    # a def or class counts as called when its name appears, as a name or an
    # attribute, anywhere in the package outside its own body; dunders are
    # Python's.  Matching by name is blind to a method that shares a name
    # with another module's attribute (struct.pack would hide a method pack)
    defs, refs = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defs += [(path.name, qual, node) for qual, node in _definitions(tree)]
        refs += [(path.name, node.id if isinstance(node, ast.Name) else node.attr, node.lineno)
                 for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]
    uncalled = sorted(
        qual for where, qual, node in defs
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and not any(name == node.name
                    and (file != where or not node.lineno <= line <= node.end_lineno)
                    for file, name, line in refs))
    assert uncalled == sorted(UNCALLED)


def test_one_fourier_side_determinant():
    # det(lambda - A(xi)) = prod(lambda + gamma_j |xi|^2) is formed and screened
    # only in symbols._resolvent_entries; a module that names the roots could
    # grow a second copy.  bounded is left out: the continuum determinants
    # of the bounded domains will need the roots
    found = [f"{name}:{n}" for name in ("multipliers.py", "torus.py")
             for n, line in enumerate((PACKAGE / name).read_text().splitlines(), 1)
             if re.search(r"\bGAMMAS\b", line)]
    assert not found, f"GAMMAS named outside symbols: {found}"


def test_one_mode_table():
    # the torus transforms forward by rfftn only, onto the half spectrum that
    # TorusGrid.distinct_s indexes: a full-grid fftn, its coefficient helper or
    # a full-grid index cut back to the half would be a second mode table.
    # bounded._coefficients, the class-map coefficient products, is another object
    torus_lines = enumerate((PACKAGE / "torus.py").read_text().splitlines(), 1)
    found = [f"torus.py:{n}" for n, line in torus_lines
             if re.search(r"\bfftn\b|\b_coefficients\b", line)]
    found += [f"{path.name}:{n}" for path in sorted(PACKAGE.glob("*.py"))
              for n, line in enumerate(path.read_text().splitlines(), 1)
              if re.search(r"\bhalf_inverse\b", line)]
    assert not found, f"a second torus mode table: {found}"


def test_one_block_builder():
    # every eigvals, SVD and Schur form factors the block that
    # DiscreteGenerator.balanced_block folds anew for it: _class_block is named
    # only there, and no code reads an attribute named blocks, so that a second
    # block builder or a block cache cannot return unseen
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        builder = [node for qual, node in _definitions(tree)
                   if qual == "DiscreteGenerator.balanced_block"]
        inside = lambda line: any(b.lineno <= line <= b.end_lineno for b in builder)
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name == "_class_block" and not inside(node.lineno):
                found.append(f"{path.name}:{node.lineno} names _class_block")
            if isinstance(node, ast.Attribute) and node.attr == "blocks":
                found.append(f"{path.name}:{node.lineno} reads .blocks")
    assert not found, found
