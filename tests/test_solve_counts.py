"""How many linear solves each ADMM splitting makes.  A CARE-ADMM sweep
solves its X and W systems and applies the inverse of its constant Z
system, formed once per solve; a Lyapunov inner solve inverts its two
constant systems once and then sweeps with products alone.  The counts
go through the module globals, as the benchmark tracer's spans do."""

import pytest

import matrixopt.care_admm as care_admm
import matrixopt.newton_admm as newton_admm
from matrixopt.harness.manifest import run_method
from matrixopt.problems import LyapunovProblem, table_source

T8_ADMM = {"alpha": 0.91, "beta": 2.8, "gamma": 0.0014}


def count_calls(monkeypatch, module, *names):
    """Wrap each ``module.name`` to count its calls; return the counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("sweeps", [5, 40])
def test_care_admm_sweep_makes_two_cholesky_solves(sweeps, monkeypatch):
    counts = count_calls(monkeypatch, care_admm, "cholesky_solve", "spd_solve", "lu_solve")
    report = run_method("admm", table_source("t8", 16).build(), {**T8_ADMM, "max_iterations": sweeps})
    assert report.iterations == sweeps
    # The one spd_solve inverts the Z system at set-up, whatever the sweep count.
    assert counts == {"cholesky_solve": 2 * sweeps, "spd_solve": 1, "lu_solve": 0}


@pytest.mark.parametrize("inner_max", [3, 200])
def test_lyapunov_inner_solve_makes_two_spd_solves(inner_max, monkeypatch):
    p = table_source("t9", 16).build()
    counts = count_calls(monkeypatch, newton_admm, "spd_factor", "spd_solve")
    cfg = newton_admm.NewtonAdmmConfig(tol=1e-6, inner_max=inner_max)
    report = newton_admm.solve_lyapunov_admm(LyapunovProblem(a=p.a, q=p.k_mat), cfg)
    assert report.iterations > 1
    assert counts == {"spd_factor": 2, "spd_solve": 2}


def test_newton_admm_makes_two_spd_solves_per_outer_step(monkeypatch):
    counts = count_calls(monkeypatch, newton_admm, "spd_solve")
    report = run_method("newton-admm", table_source("t9", 16).build(), {"alpha": 0.8, "beta": 53.5})
    assert report.converged and report.iterations > report.detail["outer_iterations"]
    assert counts["spd_solve"] == 2 * report.detail["outer_iterations"]
