"""Optimization-based solvers for Sylvester, Lyapunov, and Riccati
matrix equations, with baselines and a benchmark harness."""

from .baselines import (
    BaselineConfig,
    care_residual,
    solve_anderson_richardson,
    solve_cg,
    solve_lyapunov_direct,
    solve_newton_care,
)
from .care_admm import (
    AdmmConfig,
    AdmmState,
    admm_step,
    kkt_residuals,
    lagrangian_value,
    solve_care_admm,
)
from .ccom import CcomConfig, ccom_step, solve_ccom
from .mmio import read_matrix_market, write_matrix_market
from .newton_admm import (
    LyapAdmmState,
    NewtonAdmmConfig,
    lyap_admm_step,
    lyapunov_residual,
    solve_lyapunov_admm,
    solve_newton_admm,
)
from .oracle import solve_kronecker_direct, sylvester_residual
from .problems import (
    CareProblem,
    LyapunovProblem,
    ProblemSource,
    SuiteRow,
    SylvesterProblem,
    ammonia_reactor,
    gen_tridiagonal,
    paper_suite,
)
from .quasi_newton import (
    QnConfig,
    bfgs_update,
    dfp_update,
    exact_step,
    armijo_search,
    f1_gradient,
    f1_value,
    solve_quasi_newton,
    wolfe_search,
)
from .report import SolveReport

__version__ = "0.1.0"

__all__ = [
    "AdmmConfig",
    "AdmmState",
    "BaselineConfig",
    "CareProblem",
    "CcomConfig",
    "LyapAdmmState",
    "LyapunovProblem",
    "NewtonAdmmConfig",
    "ProblemSource",
    "QnConfig",
    "SolveReport",
    "SuiteRow",
    "SylvesterProblem",
    "admm_step",
    "ammonia_reactor",
    "armijo_search",
    "bfgs_update",
    "care_residual",
    "ccom_step",
    "dfp_update",
    "exact_step",
    "f1_gradient",
    "f1_value",
    "gen_tridiagonal",
    "kkt_residuals",
    "lagrangian_value",
    "lyap_admm_step",
    "lyapunov_residual",
    "paper_suite",
    "read_matrix_market",
    "solve_anderson_richardson",
    "solve_care_admm",
    "solve_ccom",
    "solve_cg",
    "solve_kronecker_direct",
    "solve_lyapunov_admm",
    "solve_lyapunov_direct",
    "solve_newton_admm",
    "solve_newton_care",
    "solve_quasi_newton",
    "sylvester_residual",
    "wolfe_search",
    "write_matrix_market",
]
