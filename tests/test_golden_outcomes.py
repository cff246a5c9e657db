"""Exact outcomes of every solver on fixed inputs.

Each case pins the iteration count, the termination, the length of the
residual history and the final residual (to rtol 1e-9) of one run.  An
entry that a deliberate numerics change moved was re-recorded, and its
comment names the change and the old value.  Any change to the
order of a solver's arithmetic, its stop rule or its history stride
shows here as a changed outcome.  A case that raises pins the exception
class instead.

Final residuals depend on the BLAS thread count once a factorization
or product is large enough to thread (the 256 x 256 Kronecker systems
of the n=16 ccom and direct cases, the n=128 ADMM cases), so every case
runs with both bundled OpenBLAS copies at two threads, the count the
values were recorded at.
"""

import numpy as np
import pytest

from matrixopt.errors import MatrixOptError
from matrixopt.harness.manifest import run_method
from matrixopt.linalg import OPENBLAS_COPIES, find_openblas
from matrixopt.problems import (
    SUITE_IDS,
    CareProblem,
    SylvesterProblem,
    care_family,
    paper_suite,
    sylvester_family,
)

MAX_ORDER = 16

# The BLAS thread count of both OpenBLAS copies when GOLDEN was recorded.
RECORDED_THREADS = 2


@pytest.fixture(scope="module", autouse=True)
def recorded_thread_counts():
    """Both OpenBLAS copies at RECORDED_THREADS for the module, then
    each back at its own count."""
    controls = {copy: find_openblas(copy) for copy in OPENBLAS_COPIES}
    missing = [copy for copy, found in controls.items() if found is None]
    if missing:
        pytest.skip(f"cannot set the thread count of {', '.join(missing)}'s OpenBLAS")
    saved = {copy: get() for copy, (get, _) in controls.items()}
    try:
        for copy, (get, set_) in controls.items():
            set_(RECORDED_THREADS)
            if get() != RECORDED_THREADS:
                pytest.skip(f"{copy}'s OpenBLAS cannot run {RECORDED_THREADS} threads here")
        yield
    finally:
        for copy, (_, set_) in controls.items():
            set_(saved[copy])


def _paper_cases():
    for table in SUITE_IDS:
        if table == "t7":
            continue
        for index, row in enumerate(paper_suite(table)):
            if row.source.order <= MAX_ORDER:
                yield f"{table}[{index}]-{row.method}-n{row.source.order}", (
                    row.method, row.source.build, row.params,
                )


def _newton_cases():
    """The timed exact-Newton rows above MAX_ORDER, whose Lyapunov solves
    run many more column LU solves per step."""
    for table in ("t8", "t10"):
        for index, row in enumerate(paper_suite(table)):
            if row.method == "newton" and MAX_ORDER < row.source.order <= 64:
                yield f"{table}[{index}]-newton-n{row.source.order}", (
                    row.method, row.source.build, row.params,
                )


def _family_cases():
    variants = [(qn, {"linesearch": ls}) for qn in ("dfp", "bfgs")
                for ls in ("exact", "wolfe", "armijo")]
    variants += [("cg", {}), ("ar", {}), ("ccom", {}), ("direct", {})]
    for table in ("t4", "t5", "t6"):
        source = sylvester_family(table, MAX_ORDER)
        for method, params in variants:
            tag = "-".join(str(v) for v in params.values())
            yield f"{table}-{method}{'-' + tag if tag else ''}", (method, source.build, params)


def _care_cases():
    t8 = care_family("t8", MAX_ORDER).build
    t8_admm = {"alpha": 0.91, "beta": 2.8, "gamma": 0.0014}
    t9 = care_family("t9", MAX_ORDER).build
    yield "t8-admm-check7", ("admm", t8, {**t8_admm, "check_every": 7})
    yield "t8-admm-cap200", ("admm", t8, {**t8_admm, "max_iterations": 200})
    yield "t8-admm-check7-cap100", (
        "admm", t8, {**t8_admm, "check_every": 7, "max_iterations": 100},
    )
    yield "t9-newton-admm-fixed", (
        "newton-admm", t9, {"alpha": 0.8, "beta": 53.5, "inner_tol_mode": "fixed",
                            "inner_tol_value": 1e-10},
    )
    yield "t9-newton-admm-stagnating", (
        "newton-admm", t9, {"alpha": 1e-6, "beta": 1e-6, "outer_max": 5, "inner_max": 50},
    )
    # n=128: large enough for numpy's OpenBLAS to split products and
    # norms across threads.
    yield "t8-admm-n128-cap40", (
        "admm", care_family("t8", 128).build, {**t8_admm, "max_iterations": 40},
    )
    yield "t9-newton-admm-n128", (
        "newton-admm", care_family("t9", 128).build, {"alpha": 0.8, "beta": 53.5},
    )


def _random3():
    rng = np.random.default_rng(0)
    return SylvesterProblem(*(rng.standard_normal((3, 3)) for _ in range(3)))


def _singular3():
    return SylvesterProblem(a=np.eye(3), b=-np.eye(3), c=np.eye(3))


def _edge_cases():
    """Runs that end other than by converging: stagnation, divergence,
    the iteration cap and mid-run errors."""
    for qn in ("dfp", "bfgs"):
        for ls in ("exact", "armijo", "wolfe"):
            yield f"random3-{qn}-{ls}", (qn, _random3, {"linesearch": ls})
    yield "negdef3-cg", (
        "cg", lambda: SylvesterProblem(a=-np.eye(3), b=-np.eye(3), c=np.eye(3)), {},
    )
    yield "singular3-cg", ("cg", _singular3, {})
    yield "singular3-ar", ("ar", _singular3, {})
    yield "singular3-ccom", ("ccom", _singular3, {})
    yield "t6-ar-omega1", ("ar", sylvester_family("t6", MAX_ORDER).build, {"omega": 1.0})
    yield "scalar-newton-breakdown", (
        "newton", lambda: CareProblem(a=[[0.0]], n_mat=[[0.0]], k_mat=[[1.0]]), {},
    )


CASES = dict([
    *_paper_cases(), *_newton_cases(), *_family_cases(), *_care_cases(), *_edge_cases(),
])


def outcome(method, build, params):
    """(iterations, termination, history length, final residual), or the
    name of the exception class the run raised."""
    try:
        report = run_method(method, build(), params)
    except MatrixOptError as exc:
        return type(exc).__name__
    return (
        report.iterations,
        report.termination,
        len(report.residual_history),
        report.final_residual,
    )


# Recorded before the solvers were ported onto ``report.iterate``.
GOLDEN = {
    'negdef3-cg': (0, 'stagnated', 1, 1.7320508075688772),
    'random3-bfgs-armijo': 'LineSearchError',
    # The m x m model's norm is no longer finite after step 38.
    # certified LU pseudo-inverse, was (34, 'diverged', 35, 1.5508742471325827)
    'random3-bfgs-exact': (38, 'diverged', 39, 1.5508742464386618),
    'random3-bfgs-wolfe': 'LineSearchError',
    'random3-dfp-armijo': (9, 'stagnated', 10, 1.5173721140619076),
    'random3-dfp-exact': (2, 'stagnated', 3, 1.6829697521897256),
    'random3-dfp-wolfe': (9, 'stagnated', 10, 1.5173721140619076),
    'scalar-newton-breakdown': 'NewtonBreakdownError',
    'singular3-ar': (1000, 'max_iterations', 1001, 1.7320508075688772),
    'singular3-ccom': 'SingularMatrixError',
    'singular3-cg': (0, 'stagnated', 1, 1.7320508075688772),
    't10[0]-newton-admm-n16': (85, 'converged', 10, 9.248550687533169e-09),
    't10[1]-newton-n16': (5, 'converged', 6, 8.41521704261967e-13),  # Bartels-Stewart Lyapunov solve
    't1[0]-ccom-n10': (1, 'converged', 2, 1.0425548918655045e-14),
    't2[0]-ccom-n10': (1, 'converged', 2, 1.0425548918655045e-14),
    't3[0]-ccom-n10': (1, 'converged', 2, 0.0),
    't4-ar': (2, 'converged', 3, 0.0),
    't4-bfgs-armijo': (2, 'converged', 3, 0.0),
    't4-bfgs-exact': (1, 'converged', 2, 0.0),
    't4-bfgs-wolfe': (2, 'converged', 3, 0.0),
    't4-ccom': (1, 'converged', 2, 9.957827818901353e-16),
    't4-cg': (1, 'converged', 2, 0.0),
    't4-dfp-armijo': (2, 'converged', 3, 1.7763568394002505e-15),
    't4-dfp-exact': (1, 'converged', 2, 0.0),
    't4-dfp-wolfe': (2, 'converged', 3, 1.7763568394002505e-15),
    't4-direct': (0, 'converged', 1, 5.897928109509803e-16),
    't5-ar': (2, 'converged', 3, 0.0),
    't5-bfgs-armijo': (2, 'converged', 3, 0.0),
    't5-bfgs-exact': (1, 'converged', 2, 0.0),
    't5-bfgs-wolfe': (2, 'converged', 3, 0.0),
    't5-ccom': (1, 'converged', 2, 8.238068436658583e-16),
    't5-cg': (1, 'converged', 2, 0.0),
    't5-dfp-armijo': (2, 'converged', 3, 4.884981308350689e-15),
    't5-dfp-exact': (1, 'converged', 2, 0.0),
    't5-dfp-wolfe': (2, 'converged', 3, 4.884981308350689e-15),
    't5-direct': (0, 'converged', 1, 5.951686021532507e-16),
    't6-ar': (16, 'converged', 17, 3.6304337894906403e-09),  # banded Sylvester operator, was 3.6304337552537845e-09
    't6-ar-omega1': (29, 'diverged', 30, 12300527.404853132),
    't6-bfgs-armijo': (2, 'converged', 3, 3.924968761886145e-16),  # identity start model, getri inverse, was 4.611046175249546e-16
    't6-bfgs-exact': (2, 'converged', 3, 4.2651787210335784e-16),  # identity start model, getri inverse, was 4.3952828076356995e-16
    't6-bfgs-wolfe': (2, 'converged', 3, 3.924968761886145e-16),  # identity start model, getri inverse, was 4.611046175249546e-16
    't6-ccom': (1, 'converged', 2, 1.2196823201173783e-15),
    't6-cg': (9, 'converged', 10, 2.347073826271071e-09),
    't6-dfp-armijo': (2, 'converged', 3, 3.219551131920639e-14),  # identity start model, getri inverse, was 3.081228427184746e-14
    't6-dfp-exact': (2, 'converged', 3, 3.650313286098203e-14),  # identity start model, getri inverse, was 3.299927058553371e-14
    't6-dfp-wolfe': (2, 'converged', 3, 3.219551131920639e-14),  # identity start model, getri inverse, was 3.081228427184746e-14
    't6-direct': (0, 'converged', 1, 7.493329227000589e-16),
    't8-admm-cap200': (200, 'max_iterations', 201, 0.0004771852792345927),
    't8-admm-check7': (574, 'converged', 83, 9.248793964515478e-09),
    't8-admm-check7-cap100': (100, 'max_iterations', 16, 0.010146033931904998),
    't8[0]-admm-n16': (563, 'converged', 564, 9.967274830546227e-09),
    't8[1]-newton-n16': (4, 'converged', 5, 7.766680863108668e-13),  # Bartels-Stewart Lyapunov solve
    't9-newton-admm-fixed': (266, 'converged', 5, 3.513472951985715e-11),
    't9-newton-admm-stagnating': (100, 'stagnated', 3, 6.213828066375641),
    't9[0]-newton-admm-n16': (68, 'converged', 9, 3.298127376741072e-09),
    't9[1]-newton-n16': (4, 'converged', 5, 7.766680863108668e-13),  # Bartels-Stewart Lyapunov solve
    # Recorded before the ADMM loops ran numpy's OpenBLAS at one thread.
    't8-admm-n128-cap40': (40, 'max_iterations', 41, 0.2757818949065826),
    't9-newton-admm-n128': (80, 'converged', 10, 9.284719028069045e-10),
    # Recorded before lu_solve called LAPACK getrf/getrs directly.
    't8[3]-newton-n32': (4, 'converged', 5, 1.0831627426627062e-12),
    't8[5]-newton-n64': (4, 'converged', 5, 1.5151954402005297e-12),
    't10[3]-newton-n32': (5, 'converged', 6, 1.1897206284528737e-12),
    't10[5]-newton-n64': (5, 'converged', 6, 1.6877002216147113e-12),
}


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_outcome_is_unchanged(case):
    got = outcome(*CASES[case])
    want = GOLDEN[case]
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, tuple), got
    assert got[:3] == want[:3]
    assert got[3] == pytest.approx(want[3], rel=1e-9, abs=0.0)
