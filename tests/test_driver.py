"""The shared iteration driver: history stride, stop order, uncounted
stops, and the partial report every solver attaches to a mid-run error."""

import numpy as np
import pytest

import matrixopt.baselines as baselines
import matrixopt.care_admm as care_admm
import matrixopt.newton_admm as newton_admm
from matrixopt.errors import (
    AdmmBreakdownError,
    LineSearchError,
    NewtonBreakdownError,
    SingularMatrixError,
)
from matrixopt.harness.manifest import run_method
from matrixopt.problems import CareProblem, SylvesterProblem, care_family, sylvester_family
from matrixopt.report import Stop, iterate


def _count_down(start, max_iterations, check_every=1, stop_at=0.0, raise_at=None):
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
        lambda x, r: "converged" if r <= stop_at else None,
        max_iterations,
        check_every=check_every,
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

    def test_stride_samples_every_kth_and_the_last_step(self):
        report, _ = _count_down(100.0, 10, check_every=4)
        assert report.residual_history == [100.0, 96.0, 92.0, 90.0]
        assert (report.iterations, report.termination) == (10, "max_iterations")

    def test_stop_rule_is_asked_before_the_cap(self):
        report, _ = _count_down(3.0, 3)
        assert (report.iterations, report.termination) == (3, "converged")

    def test_zero_cap_takes_no_step(self):
        report, calls = _count_down(3.0, 0)
        assert calls == [] and report.termination == "max_iterations"

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
            iterate(4.0, step, lambda x: x, lambda x, r: None, 10,
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
            iterate(1.0, lambda x: x, residual, lambda x, r: None, 5,
                    solution=lambda x: np.array([[x]]), detail={})
        assert err.value.report is None

    def test_other_exceptions_pass_through_untouched(self):
        def step(x):
            raise KeyError("not a solver error")

        with pytest.raises(KeyError):
            iterate(1.0, step, lambda x: x, lambda x, r: None, 5,
                    solution=lambda x: np.array([[x]]), detail={})


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
T6 = sylvester_family("t6", 8).build
T8 = care_family("t8", 8).build
T8_ADMM = {"alpha": 0.91, "beta": 2.8, "gamma": 0.0014}

# name -> (method, problem, params, expected error, injection or None)
ERROR_CASES = {
    "ccom-singular": ("ccom", lambda: SINGULAR, {}, SingularMatrixError, None),
    "newton-breakdown": (
        "newton", lambda: CareProblem(a=[[0.0]], n_mat=[[0.0]], k_mat=[[1.0]]), {},
        NewtonBreakdownError, None,
    ),
    "bfgs-armijo": ("bfgs", _random3, {"linesearch": "armijo"}, LineSearchError, None),
    "bfgs-wolfe": ("bfgs", _random3, {"linesearch": "wolfe"}, LineSearchError, None),
    "cg": ("cg", T6, {}, SingularMatrixError, (baselines, "trace_inner", 6)),
    "care-admm": ("admm", T8, T8_ADMM, AdmmBreakdownError, (care_admm, "admm_step", 4)),
    "newton-admm": (
        "newton-admm", T8, {}, AdmmBreakdownError, (newton_admm, "spd_solve", 20),
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
