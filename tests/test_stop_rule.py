"""One stop rule: ``report.iterate`` alone ends a run ``diverged`` on a
non-finite residual and ``converged`` on ``residual <= tol``, and alone
turns numpy's overflow and invalid-value warnings off for the loop.  A
solver that compared its residual with its tolerance itself, or quieted
numpy around its own loop, would bring back a per-solver stop rule.
The one other ``np.errstate`` is CARE-ADMM's, around the diagnostics it
forms after its loop has ended.
"""

import ast
from pathlib import Path

import matrixopt

SRC = Path(matrixopt.__file__).resolve().parent
DRIVER = "report.py"

# The run tolerance ``iterate`` applies: ``tol`` of every config.
# dfp/bfgs's ``tol`` bounds the gradient norm ``g_norm`` instead, which
# their own stop rule reads, so a comparison with ``g_norm`` is theirs.
TOLERANCES = {"tol"}
GRADIENT_NORM = "g_norm"


def modules() -> list[str]:
    return sorted(path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py"))


def parse(relative: str) -> ast.AST:
    return ast.parse((SRC / relative).read_text(encoding="utf-8"))


def name_of(node: ast.AST) -> str | None:
    """The name a plain name or attribute reads, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def is_bound(node: ast.AST) -> bool:
    """A literal bound of a range check, such as 0 or ``math.inf``."""
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) or name_of(node) == "inf"


def tolerance_tests(tree: ast.AST) -> list[int]:
    """Lines comparing a run tolerance with anything but literal bounds or
    a gradient norm: ``res <= cfg.tol`` counts, ``0 < self.tol < math.inf``
    and ``g_norm < cfg.tol`` do not."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        for operands in [[node.left, *node.comparators]]
        if any(name_of(o) in TOLERANCES for o in operands)
        and not all(name_of(o) in TOLERANCES or is_bound(o) for o in operands)
        and GRADIENT_NORM not in map(name_of, operands)
    ]


def errstates(tree: ast.AST) -> list[ast.AST]:
    return [node for node in ast.walk(tree) if name_of(node) == "errstate"]


def calls(node: ast.AST) -> set[str]:
    return {name_of(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)}


def test_only_the_driver_compares_a_residual_with_its_tolerance():
    offenders = {
        module: tolerance_tests(parse(module)) for module in modules() if module != DRIVER
    }
    assert {module: lines for module, lines in offenders.items() if lines} == {}
    assert tolerance_tests(parse(DRIVER)), "the driver's own test is not found"


def test_only_the_driver_and_care_admm_diagnostics_quiet_numpy():
    offenders = {
        module: [node.lineno for node in errstates(parse(module))]
        for module in modules()
        if module not in (DRIVER, "care_admm.py")
    }
    assert {module: lines for module, lines in offenders.items() if lines} == {}
    assert errstates(parse(DRIVER))


def test_care_admm_quiets_numpy_only_after_its_loop():
    tree = parse("care_admm.py")
    solve = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "solve_care_admm"
    )
    blocks = [node for node in ast.walk(solve) if isinstance(node, ast.With) and errstates(node)]
    assert len(blocks) == 1 and len(errstates(tree)) == 1
    (block,) = blocks
    loop = next(node for node in solve.body if "sweep_until" in calls(node))
    assert block.lineno > loop.end_lineno
    assert calls(block) - {"errstate"} == {"kkt_residuals", "lagrangian_value"}
