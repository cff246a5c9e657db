import tracemalloc

import numpy as np
import pytest

import matrixopt.quasi_newton as quasi_newton
from matrixopt.linalg import frobenius_norm
from matrixopt.problems import SylvesterProblem


def random_sylvester(rng, m, n, spd=False):
    """Well-conditioned random problem: diagonally dominant shifted A, B
    keep every operator eigenvalue-sum away from zero."""
    a = rng.standard_normal((m, m)) / max(m, 1)
    b = rng.standard_normal((n, n)) / max(n, 1)
    if spd:
        a = 0.5 * (a + a.T)
        b = 0.5 * (b + b.T)
    a += 2.0 * np.eye(m)
    b += 2.0 * np.eye(n)
    c = rng.standard_normal((m, n))
    return SylvesterProblem(a=a, b=b, c=c)


def central_difference_gradient(f, x, h=1e-6):
    """Componentwise central finite differences of a scalar field on matrices."""
    g = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        e = np.zeros_like(x)
        e[idx] = h
        g[idx] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def peak_blocks(run, n):
    """Call ``run()`` and return its result with the peak memory it
    allocated on top of what was live before, in n x n float64 blocks."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    return result, peak / (n * n * 8)


def recorded_updates(run):
    """Call ``run()`` with ``dfp_update`` and ``bfgs_update`` wrapped, and
    return its result with one ``(d, y, model)`` per model update, in
    order.  The solver reads the update through its module global, so
    the wrapper sees every update.  It keeps references: no update writes
    its operands, and no later step writes an earlier model."""
    updates = []
    originals = {name: getattr(quasi_newton, name) for name in ("dfp_update", "bfgs_update")}

    def recording(update):
        def recorded(g, d, y):
            model = update(g, d, y)
            updates.append((d, y, model))
            return model

        return recorded

    try:
        for name, update in originals.items():
            setattr(quasi_newton, name, recording(update))
        result = run()
    finally:
        for name, update in originals.items():
            setattr(quasi_newton, name, update)
    return result, updates


def assert_secant_and_symmetry(updates):
    """Each recorded model G+ meets the secant relation G+ y = d and is
    symmetric, to the audit bounds of the quasi-Newton convergence
    argument."""
    for d, y, model in updates:
        assert frobenius_norm(model @ y - d) <= 1e-8 * (1.0 + frobenius_norm(d))
        assert frobenius_norm(model - model.T) <= 1e-10 * max(1.0, frobenius_norm(model))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
