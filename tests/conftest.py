import contextlib
import dataclasses
import tracemalloc

import numpy as np
import pytest

import matrixopt.care_admm as care_admm
import matrixopt.newton_admm as newton_admm
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


@contextlib.contextmanager
def recorded_sweeps():
    """Inside the block, ``care_admm.admm_step`` and
    ``newton_admm.lyap_admm_step`` are wrapped; the yielded list gains
    one ``(problem, state in, state out)`` per sweep, in order.  The
    solvers read the sweep through its module global, so the wrapper
    sees every sweep.  It keeps references: a sweep writes no block of
    the state it reads."""
    records = []

    def recording(sweep):
        def recorded(p, s, *args):
            new = sweep(p, s, *args)
            records.append((p, s, new))
            return new

        return recorded

    with pytest.MonkeyPatch.context() as patch:
        for module, name in ((care_admm, "admm_step"), (newton_admm, "lyap_admm_step")):
            patch.setattr(module, name, recording(getattr(module, name)))
        yield records


@pytest.fixture
def sweep_records():
    """The sweeps the test runs, as :func:`recorded_sweeps` records them."""
    with recorded_sweeps() as records:
        yield records


def by_problem(records):
    """Recorded sweeps split into runs of consecutive sweeps on one
    problem object: one run per inner Lyapunov solve of Newton-ADMM."""
    runs = []
    for record in records:
        if runs and runs[-1][-1][0] is record[0]:
            runs[-1].append(record)
        else:
            runs.append([record])
    return runs


def lyap_lagrangian_value(p, s, cfg) -> float:
    """Augmented Lagrangian of Newton-ADMM's three-block Lyapunov
    splitting at the state ``s``, for the penalties of ``cfg``."""
    return care_admm._augmented_lagrangian(
        s.y + s.z @ p.a + p.q,
        ((s.lambda_, p.a.T @ s.x - s.y, cfg.alpha), (s.pi_, s.x - s.z, cfg.beta)),
    )


def frechet_apply(p, x, e):
    """Derivative of the Riccati residual map at ``x`` applied to ``e``:
    (A - N x)^T e + e (A - N x)."""
    closed_loop = p.a - p.n_mat @ x
    return closed_loop.T @ e + e @ closed_loop


def block_deltas(s, s_new) -> dict:
    """Squared change of each block over one sweep, keyed ``d<block>2``."""
    deltas = {}
    for f in dataclasses.fields(s):
        change = getattr(s_new, f.name) - getattr(s, f.name)
        deltas[f"d{f.name.rstrip('_')}2"] = float(np.vdot(change, change))
    return deltas


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
