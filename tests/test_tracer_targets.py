"""The benchmark tracer wraps library names in the namespaces of their
calling modules.  A target that no longer exists there, or that its
module no longer calls through that global, makes the traced run report
0 for its layer metrics without failing.  This guard checks the target
list quickly; the benchmark's own self-tests run the tracer end to end.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_target_is_an_attribute_of_its_owner(tracing):
    for _, target, _ in tracing.TARGETS:
        owner, attr = tracing._resolve(target)
        assert callable(vars(owner).get(attr)), target


def test_every_library_caller_reads_its_target_through_the_global(tracing):
    for caller, target, _ in tracing.TARGETS:
        if caller == "bench":
            continue
        owner, attr = tracing._resolve(target)
        tree = ast.parse(inspect.getsource(owner))
        reads = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == attr and isinstance(node.ctx, ast.Load)
        ]
        assert reads, f"{owner.__name__} never reads its global {attr}"
