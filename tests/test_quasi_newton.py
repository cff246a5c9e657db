import numpy as np
import pytest
import scipy.linalg

from conftest import (
    assert_secant_and_symmetry,
    central_difference_gradient,
    peak_blocks,
    random_sylvester,
    recorded_updates,
)
from matrixopt import quasi_newton
from matrixopt.errors import (
    DegenerateDirectionError,
    LineSearchError,
    MatrixOptError,
    PreconditionError,
)
from matrixopt.linalg import frobenius_norm, trace_inner
from matrixopt.oracle import sylvester_residual
from matrixopt.problems import SylvesterProblem, gen_tridiagonal, table_source
from matrixopt.quasi_newton import (
    SIGMA1,
    SIGMA2,
    QnConfig,
    armijo_search,
    bfgs_update,
    dfp_update,
    exact_step,
    f1_gradient,
    f1_value,
    solve_quasi_newton,
    wolfe_search,
)

SCALAR = SylvesterProblem(a=[[3.0]], b=[[6.0]], c=[[9.0]])


def _objective(report):
    """0.5 ||R||_F^2 of each iterate, from the recorded residual norms."""
    return [0.5 * r * r for r in report.residual_history]


def _commuting(n):
    # Symmetric A, B sharing an eigenbasis keep delta^T y symmetric, so
    # the symmetrized pseudo-inverse updates retain the secant relation
    # exactly; this mirrors the benchmark families.
    return SylvesterProblem(
        a=gen_tridiagonal(n, 5, -1, -1), b=gen_tridiagonal(n, 6, 2, 2), c=np.eye(n)
    )


class TestObjective:
    def test_value_at_solution_is_zero(self):
        p = SylvesterProblem(a=2 * np.eye(3), b=np.eye(3), c=np.eye(3))
        assert f1_value(p, np.eye(3) / 3.0) <= 1e-28

    def test_scalar_value(self):
        assert f1_value(SCALAR, np.array([[0.0]])) == pytest.approx(40.5)

    def test_value_is_half_squared_residual(self, rng):
        p = random_sylvester(rng, 3, 4)
        x = rng.standard_normal((3, 4))
        assert f1_value(p, x) == pytest.approx(0.5 * sylvester_residual(p, x) ** 2)

    def test_gradient_zero_at_solution(self):
        p = SylvesterProblem(a=2 * np.eye(3), b=np.eye(3), c=np.eye(3))
        g = f1_gradient(p, np.eye(3) / 3.0)
        assert frobenius_norm(g) <= 1e-13

    def test_scalar_gradient(self):
        g = f1_gradient(SCALAR, np.array([[0.0]]))
        assert g[0, 0] == pytest.approx(-81.0)

    def test_gradient_matches_finite_differences(self, rng):
        p = random_sylvester(rng, 4, 3)
        x = rng.standard_normal((4, 3))
        g = f1_gradient(p, x)
        g_fd = central_difference_gradient(lambda z: f1_value(p, z), x)
        assert frobenius_norm(g - g_fd) <= 1e-6 * max(1.0, frobenius_norm(g))


class TestExactStep:
    def test_scalar_case(self):
        lam = exact_step(SCALAR, np.array([[0.0]]), np.array([[81.0]]))
        assert lam == pytest.approx(1.0 / 81.0)

    def test_zero_at_optimum(self):
        p = SylvesterProblem(a=2 * np.eye(2), b=np.eye(2), c=np.eye(2))
        x_star = np.eye(2) / 3.0
        d = -f1_gradient(p, x_star + 0.0)
        # from the optimum along any direction the profile minimum is 0
        lam = exact_step(p, x_star, np.eye(2))
        assert lam == pytest.approx(0.0, abs=1e-12)
        assert frobenius_norm(d) <= 1e-12

    def test_step_to_solution_is_one(self, rng):
        p = random_sylvester(rng, 3, 3)
        x_star = scipy.linalg.solve_sylvester(p.a, p.b, p.c)
        x0 = rng.standard_normal((3, 3))
        lam = exact_step(p, x0, x_star - x0)
        assert lam == pytest.approx(1.0, rel=1e-10)

    def test_orthogonality_after_step(self, rng):
        p = random_sylvester(rng, 3, 4)
        x = rng.standard_normal((3, 4))
        d = -f1_gradient(p, x)
        lam = exact_step(p, x, d)
        r_new = p.a @ (x + lam * d) + (x + lam * d) @ p.b - p.c
        s = p.a @ d + d @ p.b
        assert abs(trace_inner(r_new, s)) <= 1e-10 * frobenius_norm(s) ** 2

    def test_null_direction_rejected(self):
        p = SylvesterProblem(a=[[1.0]], b=[[-1.0]], c=[[1.0]])
        with pytest.raises(DegenerateDirectionError):
            exact_step(p, np.zeros((1, 1)), np.ones((1, 1)))


class TestWolfeSearch:
    def test_unit_step_accepted_on_normalized_quadratic(self):
        # phi(t) = 0.5 (t - 1)^2: slope -1 at 0, curvature 1.  At t = 1,
        # phi = 0 and phi' = 0, so both conditions hold for any sigma pair.
        p = SylvesterProblem(a=[[1.0]], b=[[0.0]], c=[[1.0]])
        alpha = wolfe_search(p, np.zeros((1, 1)), np.ones((1, 1)))
        assert alpha == pytest.approx(1.0)

    def test_non_descent_rejected(self, rng):
        p = random_sylvester(rng, 2, 2)
        x = rng.standard_normal((2, 2))
        g = f1_gradient(p, x)
        with pytest.raises(PreconditionError):
            wolfe_search(p, x, g)  # uphill

    def test_conditions_hold_post_hoc(self, rng):
        for _ in range(20):
            p = random_sylvester(rng, 3, 3)
            x = rng.standard_normal((3, 3))
            d = -f1_gradient(p, x)
            if frobenius_norm(d) < 1e-12:
                continue
            alpha = wolfe_search(p, x, d)
            phi0 = f1_value(p, x)
            dphi0 = trace_inner(f1_gradient(p, x), d)
            assert f1_value(p, x + alpha * d) <= phi0 + SIGMA1 * alpha * dphi0 + 1e-12
            dphi = trace_inner(f1_gradient(p, x + alpha * d), d)
            assert dphi >= SIGMA2 * dphi0 - 1e-12

    def test_tiny_trial_budget_fails(self, rng, monkeypatch):
        p = random_sylvester(rng, 2, 2)
        x = rng.standard_normal((2, 2)) * 100.0
        d = -f1_gradient(p, x)
        monkeypatch.setattr(quasi_newton, "LINE_SEARCH_TRIALS", 1)
        with pytest.raises(LineSearchError):
            wolfe_search(p, x, d)


class TestArmijoSearch:
    def test_accepts_decreasing_step(self, rng):
        p = random_sylvester(rng, 3, 2)
        x = rng.standard_normal((3, 2))
        d = -f1_gradient(p, x)
        alpha = armijo_search(p, x, d)
        dphi0 = trace_inner(f1_gradient(p, x), d)
        assert f1_value(p, x + alpha * d) <= f1_value(p, x) + SIGMA1 * alpha * dphi0

    def test_non_descent_rejected(self, rng):
        p = random_sylvester(rng, 2, 2)
        x = rng.standard_normal((2, 2))
        with pytest.raises(PreconditionError):
            armijo_search(p, x, f1_gradient(p, x))


@pytest.mark.parametrize("search", [armijo_search, wolfe_search])
def test_line_search_defaults_are_the_configs(search, monkeypatch):
    """Each search reads SIGMA1 (and wolfe_search SIGMA2) from the module
    when called, so the module constant is the one statement of each."""
    # phi(t) = 0.5 (t - 1)^2 along d = 1: sufficient decrease with slope
    # fraction sigma1 admits t <= 2 (1 - sigma1), so 0.75 halves the unit step.
    p = SylvesterProblem(a=[[1.0]], b=[[0.0]], c=[[1.0]])
    x, d = np.zeros((1, 1)), np.ones((1, 1))
    assert search(p, x, d) == 1.0
    monkeypatch.setattr(quasi_newton, "SIGMA1", 0.75)
    assert search(p, x, d) == 0.5
    monkeypatch.undo()
    if search is wolfe_search:
        # Along d = 1/4 the curvature bound with fraction sigma2 asks for
        # t >= 4 (1 - sigma2): 0.5 rejects the unit step and doubles it.
        assert search(p, x, 0.25 * d) == 1.0
        monkeypatch.setattr(quasi_newton, "SIGMA2", 0.5)
        assert search(p, x, 0.25 * d) == 2.0


class TestUpdates:
    def _state(self, rng, m, n):
        p = random_sylvester(rng, m, n)
        x0 = rng.standard_normal((m, n))
        g0 = f1_gradient(p, x0)
        d = -g0
        lam = exact_step(p, x0, d)
        x1 = x0 + lam * d
        g1 = f1_gradient(p, x1)
        return np.eye(m), x1 - x0, g1 - g0

    def test_scalar_reduces_to_ratio(self):
        for update in (dfp_update, bfgs_update):
            assert update(np.eye(1), np.array([[2.0]]), np.array([[8.0]]))[0, 0] == (
                pytest.approx(0.25)
            )

    def _commuting_state(self, n=6):
        p = _commuting(n)
        x0 = np.zeros((n, n))
        g0 = f1_gradient(p, x0)
        d = -g0
        lam = exact_step(p, x0, d)
        x1 = x0 + lam * d
        g1 = f1_gradient(p, x1)
        return np.eye(n), x1 - x0, g1 - g0

    def test_matrix_form_secant(self):
        # delta (delta^T y)^+ (delta^T y) = delta whenever delta^T y is
        # nonsingular, hence G+ y = delta.
        for update in (dfp_update, bfgs_update):
            g, d, y = self._commuting_state()
            s = d.T @ y
            assert np.linalg.matrix_rank(s) == s.shape[0]
            g_new = update(g, d, y)
            err = frobenius_norm(g_new @ y - d)
            assert err <= 1e-8 * (1.0 + frobenius_norm(d))

    def test_symmetry_after_update(self, rng):
        for update in (dfp_update, bfgs_update):
            g_new = update(*self._state(rng, 3, 3))
            assert frobenius_norm(g_new - g_new.T) <= 1e-10 * frobenius_norm(g_new)

    @pytest.mark.parametrize("update", [dfp_update, bfgs_update])
    @pytest.mark.parametrize("m, n", [(1, 1), (3, 2), (2, 5), (8, 8), (64, 48)])
    def test_no_model_is_the_identity(self, update, m, n):
        # inv_hessian=None stands for the start model I without forming it.
        rng = np.random.default_rng(100 * m + n)
        d = rng.standard_normal((m, n))
        q = rng.standard_normal((m, m))
        y = (q @ q.T + m * np.eye(m)) @ d  # <delta, y> > 0
        got = update(None, d, y)
        want = update(np.eye(m), d, y)
        assert got.shape == want.shape
        assert frobenius_norm(got - want) <= 1e-14 * frobenius_norm(want)

    def test_update_leaves_its_operands_alone(self, rng):
        _, d, y = self._state(rng, 4, 3)
        operands = (rng.standard_normal((4, 4)), d, y)
        before = [a.copy() for a in operands]
        for update in (dfp_update, bfgs_update):
            update(*operands)
            assert all(np.array_equal(a, b) for a, b in zip(operands, before))


class TestSolver:
    def test_scalar_one_step(self):
        report = solve_quasi_newton(SCALAR, QnConfig(method="dfp"))
        assert report.converged
        assert report.iterations == 1
        assert report.solution[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("linesearch", ["exact", "armijo", "wolfe"])
    @pytest.mark.parametrize("method", ["dfp", "bfgs"])
    def test_matrix_form_matches_oracle_when_converged(self, method, linesearch, seed):
        # The m x m curvature model only spans the full operator on
        # favorable (e.g. commuting) instances; elsewhere it may stop
        # short or blow up, which must be reported as stagnation or
        # divergence, or raised with the partial report, never as success.
        # A bfgs model that blows up ends the run diverged under every
        # line search, a failed inexact search included.
        rng = np.random.default_rng(seed)
        m, n = (int(k) for k in rng.integers(1, 7, size=2))
        p = random_sylvester(rng, m, n)
        cfg = QnConfig(method=method, linesearch=linesearch, tol=1e-10)
        try:
            report = solve_quasi_newton(p, cfg)
        except MatrixOptError as exc:
            assert method == "dfp" and exc.report is not None
            return
        if report.converged:
            x_star = scipy.linalg.solve_sylvester(p.a, p.b, p.c)
            err = frobenius_norm(report.solution - x_star)
            assert err <= 1e-6 * (1.0 + frobenius_norm(x_star))
        elif method == "bfgs":
            assert report.termination == "diverged"
        else:
            assert report.termination in ("stagnated", "max_iterations", "diverged")

    @pytest.mark.parametrize("linesearch", ["exact", "wolfe"])
    def test_descent_every_step(self, linesearch):
        cfg = QnConfig(method="bfgs", linesearch=linesearch, tol=1e-9)
        report = solve_quasi_newton(_commuting(16), cfg)
        assert report.converged
        f_hist = _objective(report)
        for prev, cur in zip(f_hist, f_hist[1:]):
            assert cur <= prev + 1e-12 * max(1.0, prev)

    def test_wolfe_guarantees_curvature(self):
        cfg = QnConfig(method="bfgs", linesearch="wolfe", tol=1e-9)
        report, updates = recorded_updates(lambda: solve_quasi_newton(_commuting(6), cfg))
        assert report.converged and updates
        for d, y, model in updates:
            # weak-Wolfe steps keep <delta, y> strictly positive, and a
            # positive curvature keeps the BFGS model positive definite
            assert trace_inner(d, y) > 0
            assert np.linalg.eigvalsh(model).min() > 0

    def test_secant_and_symmetry_audit(self):
        cfg = QnConfig(method="bfgs", tol=1e-10)
        report, updates = recorded_updates(lambda: solve_quasi_newton(_commuting(32), cfg))
        assert report.converged and updates
        assert_secant_and_symmetry(updates)

    def test_t5_family_matrix_form(self):
        p = SylvesterProblem(
            a=gen_tridiagonal(128, 3, -2, -2),
            b=gen_tridiagonal(128, 6, 2, 2),
            c=np.eye(128),
        )
        for method in ("dfp", "bfgs"):
            cfg = QnConfig(method=method, linesearch="exact", tol=1e-10)
            report = solve_quasi_newton(p, cfg)
            assert report.converged and report.iterations <= 5
            assert report.final_residual <= 1e-12

    def test_armijo_runs(self, rng):
        p = random_sylvester(rng, 3, 3)
        cfg = QnConfig(method="bfgs", linesearch="armijo", max_iterations=200,
                       tol=1e-6)
        # Armijo never tests curvature, so it may stall in rounding noise
        # and surface the partial report; every accepted step must still
        # have descended.
        try:
            report = solve_quasi_newton(p, cfg)
        except LineSearchError as exc:
            report = exc.report
            assert report is not None
        f_hist = _objective(report)
        assert f_hist[-1] <= f_hist[0]
        for prev, cur in zip(f_hist, f_hist[1:]):
            assert cur <= prev + 1e-12 * max(1.0, prev)

    @pytest.mark.parametrize("method", ["dfp", "bfgs"])
    def test_converging_step_forms_no_update(self, method):
        p = table_source("t6", 16).build()
        report, updates = recorded_updates(
            lambda: solve_quasi_newton(p, QnConfig(method=method))
        )
        assert report.converged and report.iterations == 2
        assert len(updates) == report.iterations - 1

        # A run that stops at the cap still forms its last update.
        report, updates = recorded_updates(
            lambda: solve_quasi_newton(p, QnConfig(method=method, max_iterations=1))
        )
        assert report.termination == "max_iterations" and report.iterations == 1
        assert len(updates) == report.iterations

    @pytest.mark.parametrize("method", ["dfp", "bfgs"])
    @pytest.mark.parametrize("max_iterations", [1, 500])
    def test_detail_is_the_gradient_norm_history(self, method, max_iterations):
        p = table_source("t6", 16).build()
        cfg = QnConfig(method=method, max_iterations=max_iterations)
        report = solve_quasi_newton(p, cfg)
        assert set(report.detail) == {"grad_norm_history"}
        history = report.detail["grad_norm_history"]
        assert len(history) == report.iterations + 1
        assert history[-1] == frobenius_norm(f1_gradient(p, report.solution))
        assert report.converged == (history[-1] < cfg.tol)

    @pytest.mark.parametrize("linesearch", ["exact", "armijo", "wolfe"])
    def test_one_gradient_per_iterate(self, monkeypatch, linesearch):
        # The searches read the exact quadratic profile, so the only
        # gradients are the initial one and one per step.
        calls = []

        def counted(p, x, r=None):
            calls.append(x)
            return f1_gradient(p, x, r)

        monkeypatch.setattr("matrixopt.quasi_newton.f1_gradient", counted)
        p = table_source("t6", 16).build()
        report = solve_quasi_newton(p, QnConfig(method="bfgs", linesearch=linesearch))
        assert report.converged
        assert len(calls) == report.iterations + 1

    def test_exploding_model_diverges(self, rng):
        # The m x m model of this nonsymmetric problem grows past
        # sqrt(m)/eps while its norm is still finite; the run stops on the
        # step that formed it and keeps its finite iterate.
        p = random_sylvester(rng, 3, 3)
        report, updates = recorded_updates(lambda: solve_quasi_newton(p, QnConfig(method="bfgs")))
        bound = np.sqrt(3) / np.finfo(np.float64).eps
        norms = [frobenius_norm(model) for _, _, model in updates]
        assert report.termination == "diverged" and len(norms) == report.iterations
        assert max(norms[:-1]) <= bound < norms[-1] < np.inf
        assert np.isfinite(report.solution).all()
        assert len(report.residual_history) == report.iterations + 1

    @pytest.mark.parametrize("linesearch", ["armijo", "wolfe"])
    def test_failed_search_after_blow_up_diverges(self, monkeypatch, linesearch):
        # The search would fail on the second step: a model past
        # sqrt(m)/eps ends the run diverged before that search runs; under
        # a model of norm sqrt(m) the failure raises with the partial report.
        p = table_source("t6", 16).build()
        m = p.shape[0]
        search = f"matrixopt.quasi_newton.{linesearch}_search"
        searched = []

        def fails_on_second(*args, **kwargs):
            searched.append(1)
            if len(searched) == 2:
                raise LineSearchError("no step")
            return 1e-3

        monkeypatch.setattr(search, fails_on_second)
        monkeypatch.setattr(
            "matrixopt.quasi_newton.bfgs_update",
            lambda *operands: 2.0 / np.finfo(np.float64).eps * np.eye(m),  # norm 2 sqrt(m)/eps
        )
        cfg = QnConfig(method="bfgs", linesearch=linesearch)
        report = solve_quasi_newton(p, cfg)
        assert (report.termination, report.iterations) == ("diverged", 1)
        assert len(report.residual_history) == 2 and len(searched) == 1

        searched.clear()
        monkeypatch.setattr("matrixopt.quasi_newton.bfgs_update", lambda *operands: np.eye(m))
        with pytest.raises(LineSearchError) as exc:
            solve_quasi_newton(p, cfg)
        assert exc.value.report.iterations == 1

    def test_model_with_overflowing_norm_diverges(self, monkeypatch):
        # Every entry is finite, and so is the norm, 1.6e201, though its
        # squares overflow: the model is far past sqrt(m)/eps.
        p = table_source("t6", 16).build()
        m = p.shape[0]
        monkeypatch.setattr(
            "matrixopt.quasi_newton.bfgs_update",
            lambda *operands: np.full((m, m), 1e200),
        )
        report = solve_quasi_newton(p, QnConfig(method="bfgs"))
        assert report.termination == "diverged" and report.iterations == 1
        assert len(report.residual_history) == 2

    def test_history_invariant(self, rng):
        p = random_sylvester(rng, 3, 3)
        report = solve_quasi_newton(p, QnConfig(tol=1e-9))
        assert len(report.residual_history) == report.iterations + 1


# Peak traced allocation of one matrix-form solve of t6 at n=256 (two
# steps, one model update), in n x n float64 arrays, rounded: the start
# model is never formed, the update accumulates in one array and the
# old iterate is released before it.  It was 14 (dfp) and 12 (bfgs) with
# a formed identity and out-of-place updates.
PEAK_ARRAYS = {"dfp": 8, "bfgs": 8}


@pytest.mark.parametrize("method", sorted(PEAK_ARRAYS))
def test_matrix_form_peak_memory(method):
    n = 256
    p = table_source("t6", n).build()
    report, peak = peak_blocks(lambda: solve_quasi_newton(p, QnConfig(method=method)), n)
    assert report.converged and report.iterations == 2
    assert round(peak) <= PEAK_ARRAYS[method]


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            QnConfig(method="sr1")
