"""The package keeps one input rule and one output rule: only the CSV
reader (with its rereader for decode errors) and the sidecar reader open an
input, only the CLI's output opener opens an output, and no module imports
another module's private names."""

import ast
from pathlib import Path

import cliqueindex

MODULES = sorted(Path(cliqueindex.__file__).parent.glob("*.py"))
OPENERS = {
    "schema.CsvInput.__init__",
    "schema._first_undecodable_line",
    "schema.read_sidecar",
    "cli._out_stream",
}


def _calls(node, scope):
    """(qualified name of the enclosing def or class, call) for each call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _calls(child, f"{scope}.{child.name}")
            continue
        if isinstance(child, ast.Call):
            yield scope, child
        yield from _calls(child, scope)


def _is_open(call: ast.Call) -> bool:
    func = call.func
    return (isinstance(func, ast.Name) and func.id == "open") or (isinstance(func, ast.Attribute) and func.attr == "open")


def test_only_the_input_and_output_rules_open_a_file():
    openers = {
        scope
        for path in MODULES
        for scope, call in _calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        if _is_open(call)
    }
    assert openers <= OPENERS


def test_no_module_imports_a_private_name():
    private = [
        f"{path.stem}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
