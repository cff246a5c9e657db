"""Exact outcomes of every solver on fixed inputs off the desk.

The desk's own rows are pinned to the bit by ``desk_golden.json``
(``test_desk_golden.py``); the cases here are other orders, parameters,
line searches and edge problems.  Each case pins the iteration count, the termination, the length of the
residual history and the final residual (to rtol 1e-9) of one run.  An
entry that a deliberate numerics change moved was re-recorded, and its
comment names the change and the old value.  Any change to the
order of a solver's arithmetic, its stop rule or its history stride
shows here as a changed outcome.  A case that raises pins the exception
class instead.

Every case runs through ``run_method``, which holds both bundled
OpenBLAS copies at one thread, so the values do not depend on the
host's thread count.
"""

import numpy as np
import pytest

from matrixopt.errors import MatrixOptError
from matrixopt.harness.manifest import run_method
from matrixopt.problems import CareProblem, SylvesterProblem, table_source

MAX_ORDER = 16


def _family_cases():
    variants = [(qn, {"linesearch": ls}) for qn in ("dfp", "bfgs")
                for ls in ("exact", "wolfe", "armijo")]
    variants += [("cg", {}), ("ar", {}), ("ccom", {}), ("direct", {})]
    for table in ("t4", "t5", "t6"):
        source = table_source(table, MAX_ORDER)
        for method, params in variants:
            tag = "-".join(str(v) for v in params.values())
            yield f"{table}-{method}{'-' + tag if tag else ''}", (method, source.build, params)


def _care_cases():
    t8 = table_source("t8", MAX_ORDER).build
    t8_admm = {"alpha": 0.91, "beta": 2.8, "gamma": 0.0014}
    t9 = table_source("t9", MAX_ORDER).build
    yield "t8-admm-cap200", ("admm", t8, {**t8_admm, "max_iterations": 200})
    yield "t9-newton-admm-tight", (
        "newton-admm", t9, {"alpha": 0.8, "beta": 53.5, "tol": 1e-11, "inner_tol_value": 1e-6},
    )
    yield "t9-newton-admm-stagnating", (
        "newton-admm", t9, {"alpha": 1e-6, "beta": 1e-6, "outer_max": 5, "inner_max": 50},
    )
    # n=128: large enough that products and Cholesky solves would round
    # differently at two threads than at the one thread they run at.
    yield "t8-admm-n128-cap40", (
        "admm", table_source("t8", 128).build, {**t8_admm, "max_iterations": 40},
    )


def _random3():
    rng = np.random.default_rng(0)
    return SylvesterProblem(*(rng.standard_normal((3, 3)) for _ in range(3)))


def _singular3():
    return SylvesterProblem(a=np.eye(3), b=-np.eye(3), c=np.eye(3))


def _rotation2():
    """A rotation generator A, on which ar's Richardson steps grow."""
    return SylvesterProblem(a=[[0.0, -5.0], [5.0, 0.0]], b=[[0.1]], c=[[1.0], [1.0]])


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
    yield "rotation2-ar", ("ar", _rotation2, {})
    yield "scalar-newton-breakdown", (
        "newton", lambda: CareProblem(a=[[0.0]], n_mat=[[0.0]], k_mat=[[1.0]]), {},
    )


CASES = dict([*_family_cases(), *_care_cases(), *_edge_cases()])


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
    # The model passes sqrt(m)/eps at step 3 and the run ends diverged
    # before a line search reads it, was 'LineSearchError'.
    'random3-bfgs-armijo': (3, 'diverged', 4, 1.613021848019834),
    # The model passes sqrt(m)/eps at step 4; the run went on until its
    # norm overflowed, was (38, 'diverged', 39, 1.5508742464386618), and
    # before the certified LU pseudo-inverse (34, 'diverged', 35, 1.5508742471325827).
    'random3-bfgs-exact': (4, 'diverged', 5, 1.5723871502546067),
    # As armijo: diverged at step 3, was 'LineSearchError'.
    'random3-bfgs-wolfe': (3, 'diverged', 4, 1.613021848019834),
    'random3-dfp-armijo': (9, 'stagnated', 10, 1.5173721140619076),
    'random3-dfp-exact': (2, 'stagnated', 3, 1.6829697521897256),
    'random3-dfp-wolfe': (9, 'stagnated', 10, 1.5173721140619076),
    # ar at its one omega, 1 / (||A||_1 + ||B||_1); replaced t6 ar at
    # omega = 1 when omega stopped being a parameter.
    'rotation2-ar': (85, 'diverged', 86, 1775027.8628259676),
    'scalar-newton-breakdown': 'NewtonBreakdownError',
    'singular3-ar': (1000, 'max_iterations', 1001, 1.7320508075688772),
    'singular3-ccom': 'SingularMatrixError',
    'singular3-cg': (0, 'stagnated', 1, 1.7320508075688772),
    't4-ar': (2, 'converged', 3, 0.0),
    't4-bfgs-armijo': (2, 'converged', 3, 0.0),
    't4-bfgs-exact': (1, 'converged', 2, 0.0),
    't4-bfgs-wolfe': (2, 'converged', 3, 0.0),
    't4-ccom': (1, 'converged', 2, 9.355607455146016e-16),  # both OpenBLAS copies at one thread, was 9.957827818901353e-16
    't4-cg': (1, 'converged', 2, 0.0),
    't4-dfp-armijo': (2, 'converged', 3, 1.7763568394002505e-15),
    't4-dfp-exact': (1, 'converged', 2, 0.0),
    't4-dfp-wolfe': (2, 'converged', 3, 1.7763568394002505e-15),
    't4-direct': (0, 'converged', 1, 5.75776771657374e-16),  # both OpenBLAS copies at one thread, was 5.897928109509803e-16
    't5-ar': (2, 'converged', 3, 0.0),
    't5-bfgs-armijo': (2, 'converged', 3, 0.0),
    't5-bfgs-exact': (1, 'converged', 2, 0.0),
    't5-bfgs-wolfe': (2, 'converged', 3, 0.0),
    't5-ccom': (1, 'converged', 2, 9.618798184860822e-16),  # both OpenBLAS copies at one thread, was 8.238068436658583e-16
    't5-cg': (1, 'converged', 2, 0.0),
    't5-dfp-armijo': (2, 'converged', 3, 4.884981308350689e-15),
    't5-dfp-exact': (1, 'converged', 2, 0.0),
    't5-dfp-wolfe': (2, 'converged', 3, 4.884981308350689e-15),
    't5-direct': (0, 'converged', 1, 5.517448599762526e-16),  # both OpenBLAS copies at one thread, was 5.951686021532507e-16
    't6-ar': (16, 'converged', 17, 3.6304337894906403e-09),  # banded Sylvester operator, was 3.6304337552537845e-09
    't6-bfgs-armijo': (2, 'converged', 3, 3.924968761886145e-16),  # identity start model, getri inverse, was 4.611046175249546e-16
    't6-bfgs-exact': (2, 'converged', 3, 4.2651787210335784e-16),  # identity start model, getri inverse, was 4.3952828076356995e-16
    't6-bfgs-wolfe': (2, 'converged', 3, 3.924968761886145e-16),  # identity start model, getri inverse, was 4.611046175249546e-16
    't6-ccom': (1, 'converged', 2, 1.1855733436284167e-15),  # both OpenBLAS copies at one thread, was 1.2196823201173783e-15
    't6-cg': (9, 'converged', 10, 2.347073826271071e-09),
    't6-dfp-armijo': (2, 'converged', 3, 3.219551131920639e-14),  # identity start model, getri inverse, was 3.081228427184746e-14
    't6-dfp-exact': (2, 'converged', 3, 3.650313286098203e-14),  # identity start model, getri inverse, was 3.299927058553371e-14
    't6-dfp-wolfe': (2, 'converged', 3, 3.219551131920639e-14),  # identity start model, getri inverse, was 3.081228427184746e-14
    't6-direct': (0, 'converged', 1, 8.094429502810116e-16),  # both OpenBLAS copies at one thread, was 7.493329227000589e-16
    't8-admm-cap200': (200, 'max_iterations', 201, 0.0004771852792345927),
    # Near-exact inner solves under the forcing rule, the one inner
    # tolerance; replaced the retired fixed-tolerance case.
    't9-newton-admm-tight': (199, 'converged', 5, 4.649483825329702e-12),  # inverted constant systems, factored sweep terms, was 4.649483807668934e-12
    't9-newton-admm-stagnating': (100, 'stagnated', 3, 6.213828066375641),
    # Recorded before the ADMM loops ran numpy's OpenBLAS at one thread.
    't8-admm-n128-cap40': (40, 'max_iterations', 41, 0.2757818949065826),
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
