"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``criterion NN PASS`` line (visible with ``pytest -s``
or on failure).  Expensive solver runs are shared through module-scoped
fixtures so the whole suite stays desk-scale.
"""

import time
import warnings

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    assert_secant_and_symmetry,
    block_deltas,
    by_problem,
    central_difference_gradient,
    frechet_apply,
    lyap_lagrangian_value,
    random_sylvester,
    recorded_sweeps,
    recorded_updates,
)
from matrixopt.baselines import (
    BaselineConfig,
    care_residual,
    solve_cg,
    solve_newton_care,
)
from matrixopt.care_admm import (
    AdmmConfig,
    AdmmState,
    admm_step,
    lagrangian_value,
    solve_care_admm,
    sweep_constants,
)
from matrixopt.ccom import CcomConfig, solve_ccom
from matrixopt.harness.manifest import run_method
from matrixopt.linalg import frobenius_norm
from matrixopt.newton_admm import (
    LyapAdmmState,
    NewtonAdmmConfig,
    _factors,
    lyap_admm_step,
    solve_newton_admm,
)
from matrixopt.problems import (
    CareProblem,
    LyapunovProblem,
    SylvesterProblem,
    ammonia_reactor,
    gen_tridiagonal,
    table_source,
)
from matrixopt.quasi_newton import QnConfig, f1_gradient, f1_value, solve_quasi_newton


def _pass(number: int, message: str) -> None:
    print(f"criterion {number:02d} PASS — {message}")


def scalar_care():
    return CareProblem(a=[[-2.0]], n_mat=[[25.0]], k_mat=[[1.0]])


# ---------------------------------------------------------------------------
# Shared runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def random_problem_runs():
    """Criterion 1 workload: 50 seeded problems, all applicable solvers."""
    rng = np.random.default_rng(20240901)
    start = time.perf_counter()
    runs = []
    for idx in range(50):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        spd = idx % 3 == 0
        p = random_sylvester(rng, m, n, spd=spd)
        x_star = scipy.linalg.solve_sylvester(p.a, p.b, p.c)
        reports = {"direct": None}
        reports["ccom"] = solve_ccom(p, CcomConfig(tol=1e-10))
        if spd:
            reports["cg"] = solve_cg(p, BaselineConfig(tol=1e-10))
        runs.append((p, x_star, reports))
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def t5_runs():
    """The table-5 reports, their wall time and their recorded model updates."""
    reports = {}
    updates = []
    start = time.perf_counter()
    for n in (128, 256):
        p = table_source("t5", n).build()
        for method in ("dfp", "bfgs"):
            cfg = QnConfig(method=method, linesearch="exact", tol=1e-10)
            reports[(method, n)], recorded = recorded_updates(
                lambda: solve_quasi_newton(p, cfg)
            )
            updates += recorded
    return reports, time.perf_counter() - start, updates


@pytest.fixture(scope="module")
def t6_runs():
    start = time.perf_counter()
    p = table_source("t6", 128).build()
    reports = {"cg": solve_cg(p, BaselineConfig(tol=1e-12, max_iterations=100))}
    updates = []
    for method in ("dfp", "bfgs"):
        cfg = QnConfig(method=method, linesearch="exact", tol=1e-10)
        reports[method], recorded = recorded_updates(lambda: solve_quasi_newton(p, cfg))
        updates += recorded
    return reports, time.perf_counter() - start, updates


@pytest.fixture(scope="module")
def t3_ccom_run():
    start = time.perf_counter()
    p = table_source("t3", 10).build()
    report = solve_ccom(p, CcomConfig(tol=1e-8))
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def t8_admm_runs():
    params = dict(alpha=0.91, beta=2.8, gamma=0.0014, tol=1e-8)
    start = time.perf_counter()
    runs = {}
    with recorded_sweeps() as sweeps:
        runs[16] = solve_care_admm(table_source("t8", 16).build(), AdmmConfig(**params))
    runs[32] = solve_care_admm(
        table_source("t8", 32).build(), AdmmConfig(**params)
    )
    return runs, time.perf_counter() - start, sweeps


@pytest.fixture(scope="module")
def newton_admm_runs():
    runs = {}
    start = time.perf_counter()
    for table, beta, n in (("t9", 53.5, 16), ("t10", 45.0, 16)):
        p = table_source(table, n).build()
        cfg = NewtonAdmmConfig(alpha=0.8, beta=beta, tol=1e-9)
        with warnings.catch_warnings(), recorded_sweeps() as sweeps:
            warnings.simplefilter("ignore")  # t8/t9 plants are open-loop unstable
            runs[table] = (solve_newton_admm(p, cfg=cfg), cfg, sweeps)
    return runs, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_01_oracle_equivalence(random_problem_runs):
    runs, elapsed = random_problem_runs
    assert elapsed < 30.0
    checked = 0
    for p, x_star, reports in runs:
        bound = 1e-6 * (1.0 + frobenius_norm(x_star))
        for method, report in reports.items():
            if method == "direct":
                continue
            assert report.converged, f"{method} failed to converge"
            assert frobenius_norm(report.solution - x_star) <= bound, method
            checked += 1
    _pass(1, f"{len(runs)} problems, {checked} solver runs matched scipy.linalg.solve_sylvester "
             f"at 1e-6 in {elapsed:.1f}s")


def test_criterion_02_table5_scaled(t5_runs):
    t5_runs, elapsed, _ = t5_runs
    assert elapsed < 60.0
    for (method, n), report in t5_runs.items():
        assert report.converged
        assert report.iterations <= 6, (method, n, report.iterations)
        assert report.final_residual <= 1e-12, (method, n, report.final_residual)
    worst = max(r.iterations for r in t5_runs.values())
    _pass(2, f"DFP/BFGS on n in {{128, 256}}: <= {worst} iterations, residuals <= 1e-12")


def test_criterion_03_table6_scaled(t6_runs):
    t6_runs, elapsed, _ = t6_runs
    assert elapsed < 60.0
    cg = t6_runs["cg"]
    assert cg.converged and cg.iterations <= 30 and cg.final_residual <= 1e-12
    for method in ("dfp", "bfgs"):
        report = t6_runs[method]
        assert report.converged and report.iterations <= 6
        assert report.final_residual <= 1e-12
    _pass(3, f"CG {cg.iterations} iterations, DFP/BFGS <= "
             f"{max(t6_runs[m].iterations for m in ('dfp', 'bfgs'))} iterations at n=128")


def test_criterion_04_table3(t3_ccom_run):
    report, elapsed = t3_ccom_run
    assert elapsed < 10.0
    assert report.converged
    assert report.iterations <= 3
    assert report.final_residual <= 1e-8
    l21 = report.detail["l21_history"]
    for prev, cur in zip(l21, l21[1:]):
        assert cur <= prev + 1e-10
    _pass(4, f"CCOM n=10 converged in {report.iterations} iteration(s), "
             f"residual {report.final_residual:.2e}")


def test_criterion_05_table7_ammonia():
    start = time.perf_counter()
    report = run_method(
        "admm",
        ammonia_reactor(),
        {"alpha": 0.0465, "beta": 63.51, "gamma": 0.0428, "tol": 1e-8,
         "max_iterations": 20145},
    )
    assert report.converged
    assert report.final_residual <= 1e-8
    assert report.iterations <= 3 * 6715
    assert time.perf_counter() - start < 60.0
    _pass(5, f"ammonia ADMM converged in {report.iterations} iterations "
             f"(published run: 6715), residual {report.final_residual:.2e}")


def test_criterion_06_table8_scaled(t8_admm_runs):
    t8_admm_runs, elapsed, _ = t8_admm_runs
    budgets = {16: 3 * 563, 32: 3 * 602}
    for n, report in t8_admm_runs.items():
        assert report.converged
        assert report.final_residual <= 1e-8
        assert report.iterations <= budgets[n], (n, report.iterations)
    newton_start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n in (16, 32):
            newton = solve_newton_care(
                table_source("t8", n).build(),
                cfg=BaselineConfig(tol=1e-8, max_iterations=50),
            )
            assert newton.converged and newton.final_residual <= 1e-7
    assert elapsed + (time.perf_counter() - newton_start) < 120.0
    _pass(6, f"ADMM iterations n=16: {t8_admm_runs[16].iterations} (<= 1689), "
             f"n=32: {t8_admm_runs[32].iterations} (<= 1806); Newton <= 1e-7")


def test_criterion_07_tables9_10_scaled(newton_admm_runs):
    newton_admm_runs, elapsed = newton_admm_runs
    assert elapsed < 60.0
    budgets = {"t9": 3 * 448, "t10": 3 * 373}
    for table, (report, _cfg, _sweeps) in newton_admm_runs.items():
        assert report.converged, table
        assert report.final_residual <= 1e-8, table
        assert report.final_residual <= 1e-9, (table, report.final_residual)
        assert report.iterations <= budgets[table], (table, report.iterations)
    _pass(7, "Newton-ADMM totals: "
             f"t9 {newton_admm_runs['t9'][0].iterations} (<= 1344), "
             f"t10 {newton_admm_runs['t10'][0].iterations} (<= 1119); "
             f"residuals {newton_admm_runs['t9'][0].final_residual:.2e}, "
             f"{newton_admm_runs['t10'][0].final_residual:.2e}")


def test_criterion_08_group_norm_monotone(random_problem_runs, t3_ccom_run):
    violations = 0
    pairs = 0
    histories = [r["ccom"].detail["l21_history"] for _, _, r in random_problem_runs[0]]
    histories.append(t3_ccom_run[0].detail["l21_history"])
    # square nonsingular systems finish in one sweep (a single history
    # entry); an underdetermined instance is added so the monotone
    # decrease is audited across a genuinely multi-sweep trajectory
    from matrixopt.ccom import ROW_NORM_FLOOR, ccom_step

    m_sys = np.array([[1.0, 2.0, -1.0]])
    c_vec = np.array([[2.0]])
    x = ccom_step(m_sys, c_vec, np.ones(3))
    multi = [float(np.abs(x).sum())]
    for _ in range(40):
        x = ccom_step(m_sys, c_vec, 1.0 / (2.0 * np.maximum(np.abs(x.ravel()), ROW_NORM_FLOOR)))
        multi.append(float(np.abs(x).sum()))
    histories.append(multi)
    for history in histories:
        for prev, cur in zip(history, history[1:]):
            pairs += 1
            if cur > prev + 1e-10:
                violations += 1
    assert violations == 0
    assert pairs >= 40
    _pass(8, f"group-norm objective non-increasing across {len(histories)} runs "
             f"({pairs} consecutive pairs, 0 violations)")


def test_criterion_09_decrease_inequality(t8_admm_runs, newton_admm_runs):
    sweeps = t8_admm_runs[2]
    newton_admm_runs = newton_admm_runs[0]
    cfg = AdmmConfig(alpha=0.91, beta=2.8, gamma=0.0014)
    checked = 0
    for k, (p, s, s_new) in enumerate(sweeps[:500]):
        d = block_deltas(s, s_new)
        rhs = (
            cfg.beta / 2 * d["dx2"] + cfg.alpha / 2 * d["dy2"]
            + cfg.beta / 2 * d["dz2"] + cfg.gamma / 2 * d["dw2"]
            - d["dlambda2"] / cfg.alpha - d["dpi2"] / cfg.beta
            - d["dgamma2"] / cfg.gamma
        )
        assert lagrangian_value(p, s, cfg) - lagrangian_value(p, s_new, cfg) >= rhs - 1e-8, k
        checked += 1

    inner_checked = 0
    for table, (_, na_cfg, na_sweeps) in newton_admm_runs.items():
        # one run of sweeps per inner Lyapunov solve
        for inner in by_problem(na_sweeps):
            for k, (lp, s, s_new) in enumerate(inner):
                d = block_deltas(s, s_new)
                rhs = (
                    na_cfg.beta / 2 * d["dx2"] + na_cfg.alpha / 2 * d["dy2"]
                    + na_cfg.beta / 2 * d["dz2"]
                    - d["dlambda2"] / na_cfg.alpha - d["dpi2"] / na_cfg.beta
                )
                drop = (
                    lyap_lagrangian_value(lp, s, na_cfg) - lyap_lagrangian_value(lp, s_new, na_cfg)
                )
                assert drop >= rhs - 1e-8, (table, k)
                inner_checked += 1
    _pass(9, f"sweep decrease inequality held for {checked} four-block steps "
             f"and {inner_checked} three-block inner steps (0 violations)")


def test_criterion_10_gradient_and_frechet_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(20):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 7))
        p = random_sylvester(rng, m, n)
        x = rng.standard_normal((m, n))
        g = f1_gradient(p, x)
        g_fd = central_difference_gradient(lambda z: f1_value(p, z), x)
        assert frobenius_norm(g - g_fd) <= 1e-6 * max(1.0, frobenius_norm(g))

    b = rng.standard_normal((4, 2))
    p = CareProblem(
        a=rng.standard_normal((4, 4)) - 6 * np.eye(4),
        n_mat=b @ b.T,
        k_mat=np.eye(4),
    )
    f = lambda z: p.a.T @ z + z @ p.a - z @ p.n_mat @ z + p.k_mat  # noqa: E731
    x = rng.standard_normal((4, 4))
    x = 0.5 * (x + x.T)
    e = rng.standard_normal((4, 4))
    slope = frobenius_norm(e @ p.n_mat @ e) + 1.0
    for h in (1e-4, 1e-5):
        fd = (f(x + h * e) - f(x)) / h
        err = frobenius_norm(fd - frechet_apply(p, x, e))
        assert err <= h * slope
    assert time.perf_counter() - start < 10.0
    _pass(10, "gradient matched finite differences on 20 problems; "
              "derivative map first-order accurate at h in {1e-4, 1e-5}")


def test_criterion_11_secant_and_symmetry(t5_runs, t6_runs):
    updates = t5_runs[2] + t6_runs[2]
    assert_secant_and_symmetry(updates)
    assert updates
    _pass(11, f"secant and symmetry bounds held for all {len(updates)} updates "
              "in the table-5/6 runs (0 violations)")


def test_criterion_12_quadratic_convergence():
    fitted = []
    scalar = solve_newton_care(scalar_care(), cfg=BaselineConfig(tol=1e-8, max_iterations=20))
    rng = np.random.default_rng(5)
    b = rng.standard_normal((4, 2))
    stable = CareProblem(
        a=rng.standard_normal((4, 4)) - 7 * np.eye(4),
        n_mat=b @ b.T,
        k_mat=np.eye(4),
    )
    n4 = solve_newton_care(stable, cfg=BaselineConfig(tol=1e-8, max_iterations=30))
    for report in (scalar, n4):
        assert report.converged
        r = report.residual_history
        assert len(r) >= 3
        for prev, cur in zip(r[-3:-1], r[-2:]):
            assert prev > 0
            fitted.append(cur / (prev * prev))
            assert cur <= 1e4 * prev * prev
    _pass(12, f"quadratic tail ratios r+/r^2: max {max(fitted):.3g} (<= 1e4)")


def test_criterion_13_fixed_point_certificates():
    # Riccati splitting: the scalar KKT state is (x*, a x*, x*, n x*, 0, 0, 0)
    p = scalar_care()
    a, n, k = -2.0, 25.0, 1.0
    x = (a + np.sqrt(a * a + n * k)) / n
    care_state = AdmmState(
        x=np.array([[x]]), y=np.array([[a * x]]), z=np.array([[x]]),
        w=np.array([[n * x]]), lambda_=np.zeros((1, 1)),
        pi_=np.zeros((1, 1)), gamma_=np.zeros((1, 1)),
    )
    cfg = AdmmConfig(alpha=1.0, beta=1.0, gamma=0.01)
    stepped = admm_step(p, care_state, cfg, sweep_constants(p, cfg))
    care_drift = max(
        float(np.abs(getattr(stepped, name) - getattr(care_state, name)).max())
        for name in ("x", "y", "z", "w", "lambda_", "pi_", "gamma_")
    )
    assert care_drift <= 1e-9

    lyap = LyapunovProblem(a=[[-2.0]], q=[[3.0]])
    lyap_state = LyapAdmmState(
        x=np.array([[0.75]]), y=np.array([[-1.5]]), z=np.array([[0.75]]),
        lambda_=np.zeros((1, 1)), pi_=np.zeros((1, 1)),
    )
    lyap_cfg = NewtonAdmmConfig(alpha=1.0, beta=1.0)
    lyap_stepped = lyap_admm_step(lyap, lyap_state, lyap_cfg, _factors(lyap, lyap_cfg))
    lyap_drift = max(
        float(np.abs(getattr(lyap_stepped, name) - getattr(lyap_state, name)).max())
        for name in ("x", "y", "z", "lambda_", "pi_")
    )
    assert lyap_drift <= 1e-9
    _pass(13, f"KKT states invariant: drifts {care_drift:.2e} (four-block), "
              f"{lyap_drift:.2e} (three-block)")
