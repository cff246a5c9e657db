"""The shared iteration driver: history, stop order, uncounted
stops, the partial report every solver attaches to a mid-run error, and
the ``diverged`` ending every solver gets from a blow-up."""

import math
import warnings

import numpy as np
import pytest

import matrixopt.baselines as baselines
import matrixopt.care_admm as care_admm
import matrixopt.ccom as ccom
import matrixopt.newton_admm as newton_admm
import matrixopt.quasi_newton as quasi_newton
from matrixopt.errors import (
    AdmmBreakdownError,
    LineSearchError,
    NewtonBreakdownError,
    ParameterError,
    SingularMatrixError,
)
from matrixopt.harness.manifest import METHODS, run_method
from matrixopt.problems import CareProblem, LyapunovProblem, SylvesterProblem, table_source
from matrixopt.report import Stop, iterate


def _count_down(start, max_iterations, stop_at=0.0, raise_at=None):
    """Drive x -> x - 1 from ``start`` with residual x; converge at or below
    ``stop_at``; raise Stop("stagnated") instead of the ``raise_at``-th step."""
    calls = []

    def step(x):
        calls.append(x)
        if len(calls) == raise_at:
            raise Stop("stagnated")
        return x - 1.0

    report = iterate(
        start,
        step,
        lambda x: x,
        max_iterations,
        tol=stop_at,
        solution=lambda x: np.array([[x]]),
        detail={},
    )
    return report, calls


class TestIterate:
    def test_history_has_one_entry_per_step(self):
        report, _ = _count_down(3.0, 10)
        assert report.residual_history == [3.0, 2.0, 1.0, 0.0]
        assert (report.iterations, report.termination) == (3, "converged")
        assert report.final_residual == 0.0 and report.solution[0, 0] == 0.0

    def test_initial_state_that_passes_takes_no_step(self):
        report, calls = _count_down(0.0, 10)
        assert calls == [] and report.iterations == 0
        assert report.residual_history == [0.0] and report.converged

    def test_stop_rule_is_asked_before_the_cap(self):
        report, _ = _count_down(3.0, 3)
        assert (report.iterations, report.termination) == (3, "converged")

    def test_zero_cap_takes_no_step(self):
        report, calls = _count_down(3.0, 0)
        assert calls == [] and report.termination == "max_iterations"

    def test_negative_cap_raises_before_the_first_residual(self):
        residuals = []
        with pytest.raises(ParameterError, match="nonnegative"):
            iterate(3.0, lambda x: x - 1.0, residuals.append, -1, tol=None,
                    solution=lambda x: np.array([[x]]), detail={})
        assert residuals == []

    def test_stop_exception_ends_the_run_uncounted(self):
        report, calls = _count_down(5.0, 10, raise_at=3)
        assert len(calls) == 3
        assert (report.iterations, report.termination) == (2, "stagnated")
        assert report.residual_history == [5.0, 4.0, 3.0]
        assert report.solution[0, 0] == 3.0

    def test_error_carries_the_partial_report(self):
        detail = {"seen": 0}

        def step(x):
            if x <= 2.0:
                raise SingularMatrixError("boom")
            detail["seen"] += 1
            return x - 1.0

        with pytest.raises(SingularMatrixError) as err:
            iterate(4.0, step, lambda x: x, 10, tol=None,
                    solution=lambda x: np.array([[x]]), detail=detail)
        report = err.value.report
        assert (report.iterations, report.termination) == (2, "error")
        assert report.residual_history == [4.0, 3.0, 2.0]
        assert report.detail is detail and detail["seen"] == 2
        assert report.wall_time_seconds >= 0.0

    def test_error_in_the_initial_residual_has_no_report(self):
        def residual(x):
            raise SingularMatrixError("no residual")

        with pytest.raises(SingularMatrixError) as err:
            iterate(1.0, lambda x: x, residual, 5, tol=None,
                    solution=lambda x: np.array([[x]]), detail={})
        assert err.value.report is None

    def test_other_exceptions_pass_through_untouched(self):
        def step(x):
            raise KeyError("not a solver error")

        with pytest.raises(KeyError):
            iterate(1.0, step, lambda x: x, 5, tol=None,
                    solution=lambda x: np.array([[x]]), detail={})


def _run(residuals, max_iterations=10, tol=0.0, stop=None):
    """Drive a counter through the given residual sequence, recording
    every residual ``stop`` is asked about."""
    asked = []

    def asking(x, r):
        asked.append(r)
        return stop(x, r)

    report = iterate(
        0,
        lambda k: k + 1,
        lambda k: residuals[k],
        max_iterations,
        tol=tol,
        stop=asking if stop is not None else None,
        solution=lambda k: np.array([[float(k)]]),
        detail={},
    )
    return report, asked


class TestStopOrder:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_initial_residual_diverges_before_stop_is_asked(self, bad):
        # -inf would pass ``r <= tol``, and the solver's rule would say
        # stagnated: the blow-up outranks both.
        report, asked = _run([bad], stop=lambda k, r: "stagnated")
        assert (report.iterations, report.termination) == (0, "diverged")
        assert asked == [] and len(report.residual_history) == 1
        assert not math.isfinite(report.final_residual)
        assert report.solution[0, 0] == 0.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_mid_run_residual_diverges_before_stop_is_asked(self, bad):
        report, asked = _run([3.0, 2.0, bad, 0.0], stop=lambda k, r: None)
        assert (report.iterations, report.termination) == (2, "diverged")
        assert asked == [3.0, 2.0]
        assert report.residual_history[:2] == [3.0, 2.0]
        assert not math.isfinite(report.final_residual)
        assert report.solution[0, 0] == 2.0

    def test_stop_is_asked_before_the_tolerance(self):
        report, asked = _run([3.0, 0.0], tol=1.0, stop=lambda k, r: "stagnated" if k else None)
        assert (report.iterations, report.termination) == (1, "stagnated")
        assert asked == [3.0, 0.0]

    def test_a_stop_that_passes_leaves_the_tolerance_to_decide(self):
        report, asked = _run([3.0, 2.0, 0.5], tol=1.0, stop=lambda k, r: None)
        assert (report.iterations, report.termination) == (2, "converged")
        assert asked == [3.0, 2.0, 0.5]

    def test_no_tolerance_leaves_convergence_to_stop(self):
        residuals = [3.0, 0.0, -1.0, -2.0]
        report, _ = _run(residuals, max_iterations=3, tol=None)
        assert (report.iterations, report.termination) == (3, "max_iterations")
        report, asked = _run(
            residuals, tol=None, stop=lambda k, r: "converged" if k == 2 else None
        )
        assert (report.iterations, report.termination) == (2, "converged")
        assert asked == [3.0, 0.0, -1.0]

    def test_a_blow_up_in_the_loop_raises_no_warning(self):
        def residual(x):
            return float(np.float64(x) * np.float64(1e300))

        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = iterate(1.0, lambda x: x * 1e300, residual, 10, tol=1e-8,
                             solution=lambda x: np.array([[x]]), detail={})
        assert (report.iterations, report.termination) == (1, "diverged")
        assert report.residual_history == [1e300, math.inf]
        assert np.geterr() == before


def _fail_on_call(monkeypatch, module, name, call, error):
    """Make ``module.name`` raise ``error`` on its ``call``-th use."""
    original = getattr(module, name)
    count = [0]

    def wrapped(*args, **kwargs):
        count[0] += 1
        if count[0] == call:
            raise error(f"injected failure in {name}")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)


def _random3():
    rng = np.random.default_rng(0)
    return SylvesterProblem(*(rng.standard_normal((3, 3)) for _ in range(3)))


SINGULAR = SylvesterProblem(a=np.eye(3), b=-np.eye(3), c=np.eye(3))
T6 = table_source("t6", 8).build
T8 = table_source("t8", 8).build
T8_ADMM = {"alpha": 0.91, "beta": 2.8, "gamma": 0.0014}

# name -> (method, problem, params, expected error, injection or None)
ERROR_CASES = {
    "ccom-singular": ("ccom", lambda: SINGULAR, {}, SingularMatrixError, None),
    "newton-breakdown": (
        "newton", lambda: CareProblem(a=[[0.0]], n_mat=[[0.0]], k_mat=[[1.0]]), {},
        NewtonBreakdownError, None,
    ),
    # A search that fails under a model short of a blow-up raises.
    "bfgs-armijo": (
        "bfgs", _random3, {"linesearch": "armijo"}, LineSearchError,
        (quasi_newton, "armijo_search", 2),
    ),
    "bfgs-wolfe": (
        "bfgs", _random3, {"linesearch": "wolfe"}, LineSearchError,
        (quasi_newton, "wolfe_search", 2),
    ),
    "cg": ("cg", T6, {}, SingularMatrixError, (baselines, "trace_inner", 6)),
    "care-admm": ("admm", T8, T8_ADMM, AdmmBreakdownError, (care_admm, "admm_step", 4)),
    "newton-admm": (
        "newton-admm", T8, {}, AdmmBreakdownError, (newton_admm, "spd_solve", 4),
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_mid_run_error_carries_uniform_partial_report(case, monkeypatch):
    method, build, params, error, inject = ERROR_CASES[case]
    problem = build()
    if inject is not None:
        module, name, call = inject
        _fail_on_call(monkeypatch, module, name, call, error)
    with pytest.raises(error) as err:
        run_method(method, problem, params)
    report = err.value.report
    assert report is not None
    assert report.termination == "error"
    if method == "newton-admm":
        # iterations counts inner sweeps, as on a finished report; the
        # history is per outer step
        assert report.iterations == sum(report.detail["inner_iterations_per_outer"])
        assert len(report.residual_history) == report.detail["outer_iterations"] + 1
    else:
        assert len(report.residual_history) == report.iterations + 1
    assert report.final_residual == report.residual_history[-1]
    if inject is not None:
        assert report.iterations > 0


def test_ccom_on_a_singular_operator_stops_before_its_first_step():
    with pytest.raises(SingularMatrixError) as err:
        run_method("ccom", SINGULAR, {})
    report = err.value.report
    assert (report.iterations, report.termination) == (0, "error")
    assert report.residual_history == [pytest.approx(np.sqrt(3.0))]
    assert report.detail["l21_history"] == []


def _spoil_on_call(monkeypatch, owner, name, call):
    """Make ``owner.name`` return an all-NaN result of its own shape on its
    ``call``-th use: the kernel's output, and the iterate it feeds, are no
    longer finite."""
    original = getattr(owner, name)
    count = [0]

    def wrapped(*args, **kwargs):
        out = original(*args, **kwargs)
        count[0] += 1
        return np.full_like(out, np.nan) if count[0] == call else out

    monkeypatch.setattr(owner, name, wrapped)


# (method, problem class) -> (problem, params, spoiled kernel and its
# call, or None where the problem itself overflows)
NON_FINITE_CASES = {
    ("ccom", SylvesterProblem): (_random3, {}, (ccom, "ccom_step", 1)),
    ("dfp", SylvesterProblem): (T6, {}, (quasi_newton, "exact_step", 1)),
    ("bfgs", SylvesterProblem): (T6, {}, (quasi_newton, "exact_step", 1)),
    ("cg", SylvesterProblem): (T6, {}, (SylvesterProblem, "apply", 3)),
    ("ar", SylvesterProblem): (T6, {}, (SylvesterProblem, "residual_matrix", 2)),
    ("admm", CareProblem): (T8, T8_ADMM, (care_admm, "cholesky_solve", 3)),
    ("admm", LyapunovProblem): (
        lambda: LyapunovProblem(a=-np.eye(3), q=np.eye(3)), {}, (newton_admm, "spd_solve", 1),
    ),
    ("newton", CareProblem): (T8, {}, (baselines, "solve_lyapunov_direct", 2)),
    # the second outer step's inner answer
    ("newton-admm", CareProblem): (T8, {}, (newton_admm, "symmetrize", 2)),
    # exact answers of about 1e600
    ("direct", SylvesterProblem): (
        lambda: SylvesterProblem(a=[[1e-300]], b=[[1e-300]], c=[[1e300]]), {}, None,
    ),
    ("direct", LyapunovProblem): (
        lambda: LyapunovProblem(a=[[-1e-300]], q=[[1e300]]), {}, None,
    ),
}


def test_every_method_has_a_non_finite_case():
    assert set(NON_FINITE_CASES) == set(METHODS)


@pytest.mark.parametrize(
    "key", list(NON_FINITE_CASES), ids=lambda key: f"{key[0]}-{key[1].__name__}"
)
def test_a_non_finite_iterate_ends_diverged_quietly(key, monkeypatch):
    method, _ = key
    build, params, spoil = NON_FINITE_CASES[key]
    problem = build()
    if spoil is not None:
        _spoil_on_call(monkeypatch, *spoil)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_method(method, problem, params)
    assert report.termination == "diverged"
    steps = report.detail["outer_iterations"] if method == "newton-admm" else report.iterations
    assert (steps == 0) if method == "direct" else (steps >= 1)
    assert len(report.residual_history) == steps + 1
    assert np.isfinite(report.residual_history[:-1]).all()
    assert not math.isfinite(report.final_residual)
    shape = problem.shape if isinstance(problem, SylvesterProblem) else (problem.order,) * 2
    assert report.solution.shape == shape
