"""The package keeps one input rule and one output rule: only the CSV
reader (with its rereader for decode errors) and the sidecar reader open an
input, only the CLI's output opener opens an output, and no module imports
another module's private names.  Every name the package exports is used by
the package or the benchmark, or is a construction of the paper."""

import ast
from pathlib import Path

import cliqueindex

MODULES = sorted(Path(cliqueindex.__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
# Exports that nothing in the package or the benchmark calls, kept on purpose.
PAPER_CONSTRUCTIONS = {
    "tree_entry_function": "the (p, q) entries whose coloring is the tree schema",
    "tree_coloring": "the coloring by q that makes the tree schema n columns wide",
    "naive_overlap_function": "the first-attempt function whose graph is complete",
}
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


def _references(node, enclosing, out):
    """Every Name and Attribute below node, except a def's or class's own
    name inside its body."""
    for child in ast.iter_child_nodes(node):
        inner = enclosing
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = enclosing | {child.name}
        if isinstance(child, ast.Name) and child.id not in enclosing:
            out.add(child.id)
        if isinstance(child, ast.Attribute) and child.attr not in enclosing:
            out.add(child.attr)
        _references(child, inner, out)


def test_every_export_is_used_or_a_paper_construction():
    init = Path(cliqueindex.__file__)
    exported = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(init.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set()
    for path in [m for m in MODULES if m != init] + PERFBENCH:
        _references(ast.parse(path.read_text(encoding="utf-8")), frozenset(), used)
    assert PERFBENCH and sorted(exported - used) == sorted(PAPER_CONSTRUCTIONS)
