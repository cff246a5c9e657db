"""One thread policy: ``harness.manifest.run_method`` holds both OpenBLAS
copies at one thread for every method, and no solver holds one itself.
A module that reads ``serial_products`` besides ``linalg`` (which
defines it) and the manifest would bring back a per-solver hold.
"""

import ast
from pathlib import Path

import matrixopt

SRC = Path(matrixopt.__file__).resolve().parent
ALLOWED = {"linalg.py", "harness/manifest.py"}


def reads(tree: ast.AST) -> list[ast.AST]:
    """Every node of ``tree`` that names ``serial_products``: a load, an
    attribute access or an import."""
    return [
        node for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "serial_products")
        or (isinstance(node, ast.Attribute) and node.attr == "serial_products")
        or (isinstance(node, ast.alias) and node.name.split(".")[-1] == "serial_products")
    ]


def parse(relative: str) -> ast.AST:
    return ast.parse((SRC / relative).read_text(encoding="utf-8"))


def test_no_solver_module_reads_serial_products():
    modules = sorted(path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py"))
    assert set(ALLOWED) <= set(modules)
    offenders = {
        module: [node.lineno for node in reads(parse(module))]
        for module in modules
        if module not in ALLOWED
    }
    assert {module: lines for module, lines in offenders.items() if lines} == {}


def test_run_method_enters_the_hold_once():
    tree = parse("harness/manifest.py")
    holds = [
        (function.name, node.lineno)
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.With) and reads(node)
    ]
    assert [name for name, _ in holds] == ["run_method"]
