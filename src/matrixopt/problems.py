"""Validated problem instances and the benchmark problem families.

The generators cover every coefficient-matrix family used in the
reference tables (t1..t10), including the 9x9 tubular-ammonia-reactor
state-space model.  :func:`paper_suite` exposes those tables as
reproducible manifests with the published iteration/error figures
attached as read-only reference metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError, UnknownSuiteError
from .linalg import MatrixOperator, as_matrix

SYMMETRY_ATOL = 1e-12


@dataclass(frozen=True)
class SylvesterProblem:
    """Linear matrix equation A X + X B = C with A (m x m), B (n x n), C (m x n).

    :meth:`apply` and :meth:`apply_adjoint` form the equation operator
    and its adjoint through :class:`~matrixopt.linalg.MatrixOperator`s of
    A and B, built at first use: banded A and B are read from their
    diagonals.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a, "a")
        b = as_matrix(self.b, "b")
        c = as_matrix(self.c, "c")
        if a.shape[0] != a.shape[1]:
            raise DimensionError(f"a must be square, got {a.shape}")
        if b.shape[0] != b.shape[1]:
            raise DimensionError(f"b must be square, got {b.shape}")
        if c.shape != (a.shape[0], b.shape[0]):
            raise DimensionError(
                f"c must be {a.shape[0]}x{b.shape[0]}, got {c.shape}"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def shape(self) -> tuple[int, int]:
        return self.c.shape

    @cached_property
    def _operators(self) -> tuple[MatrixOperator, MatrixOperator]:
        return MatrixOperator.of(self.a), MatrixOperator.of(self.b)

    @cached_property
    def _adjoint_operators(self) -> tuple[MatrixOperator, MatrixOperator]:
        a, b = self._operators
        return a.T, b.T

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x + x B."""
        a, b = self._operators
        return b.right(x, add_to=a.left(x))

    def apply_adjoint(self, r: np.ndarray) -> np.ndarray:
        """A^T r + r B^T."""
        a_t, b_t = self._adjoint_operators
        return b_t.right(r, add_to=a_t.left(r))

    def residual_matrix(self, x: np.ndarray) -> np.ndarray:
        """A x + x B - C."""
        r = self.apply(x)
        r -= self.c
        return r


@dataclass(frozen=True)
class LyapunovProblem:
    """Symmetric linear equation A^T X + X A + Q = 0 with symmetric Q."""

    a: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a, "a")
        q = as_matrix(self.q, "q")
        n = a.shape[0]
        if a.shape != (n, n) or q.shape != (n, n):
            raise DimensionError(f"a and q must be square of equal order, got {a.shape}, {q.shape}")
        if np.max(np.abs(q - q.T)) > SYMMETRY_ATOL:
            raise ValueError("q must be symmetric within 1e-12")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "q", q)

    @property
    def order(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class CareProblem:
    """Continuous algebraic Riccati equation A^T X + X A - X N X + K = 0.

    ``n_mat`` and ``k_mat`` must be symmetric; positive semi-definiteness
    is only verified by the explicit :meth:`check_semidefinite` eigenvalue
    scan, since it is an O(n^3) spectral question.
    """

    a: np.ndarray
    n_mat: np.ndarray
    k_mat: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a, "a")
        n_mat = as_matrix(self.n_mat, "n_mat")
        k_mat = as_matrix(self.k_mat, "k_mat")
        n = a.shape[0]
        for name, m in (("a", a), ("n_mat", n_mat), ("k_mat", k_mat)):
            if m.shape != (n, n):
                raise DimensionError(f"{name} must be {n}x{n}, got {m.shape}")
        for name, m in (("n_mat", n_mat), ("k_mat", k_mat)):
            if np.max(np.abs(m - m.T)) > SYMMETRY_ATOL:
                raise ValueError(f"{name} must be symmetric within 1e-12")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "n_mat", n_mat)
        object.__setattr__(self, "k_mat", k_mat)

    @property
    def order(self) -> int:
        return self.a.shape[0]

    def check_semidefinite(self, tol: float = 1e-10) -> None:
        """Eigenvalue scan; raises ValueError if N or K is not PSD."""
        for name, m in (("n_mat", self.n_mat), ("k_mat", self.k_mat)):
            lo = float(np.linalg.eigvalsh(m).min())
            if lo < -tol * max(1.0, float(np.abs(m).max())):
                raise ValueError(f"{name} is not positive semi-definite (min eig {lo:g})")


def gen_tridiagonal(n: int, diag: float, sub: float, super_: float) -> np.ndarray:
    """Constant-band tridiagonal matrix of order n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    m = np.zeros((n, n))
    np.fill_diagonal(m, diag)
    if n > 1:
        idx = np.arange(n - 1)
        m[idx + 1, idx] = sub
        m[idx, idx + 1] = super_
    return m


# 9-state tubular ammonia reactor model: A is the plant matrix, the 3x9
# array below is B^T (B itself is stored 9x3 so that N = B B^T is 9x9).
_AMMONIA_A = np.array([
    [-4.019, 5.12, 0, 0, -2.082, 0, 0, 0, 0.87],
    [-0.346, 0.986, 0, 0, -2.34, 0, 0, 0, 0.97],
    [-7.909, 15.407, -4.096, 0, -6.45, 0, 0, 0, 2.68],
    [-21.816, 35.606, -0.339, -3.87, -17.8, 0, 0, 0, 7.39],
    [-60.196, 98.188, -7.907, 0.34, -53.008, 0, 0, 0, 20.4],
    [0, 0, 0, 0, 94.0, -147.2, 0, 53.2, 0],
    [0, 0, 0, 0, 0, 94.0, -147.2, 0, 53.2],
    [0, 0, 0, 0, 0, 12.8, 0, -31.6, 0],
    [0, 0, 0, 0, 12.8, 0, 0, 18.8, -31.6],
])

_AMMONIA_BT = np.array([
    [0.010, 0.003, 0.009, 0.024, 0.068, 0, 0, 0, 0],
    [-0.011, 0.021, -0.059, -0.162, -0.445, 0, 0, 0, 0],
    [-0.151, 0, 0, 0, 0, 0, 0, 0, 0],
])


def ammonia_reactor() -> CareProblem:
    """CARE instance for the 9-state ammonia reactor: N = B B^T, K = I_9."""
    b = _AMMONIA_BT.T.copy()
    n_mat = b @ b.T
    return CareProblem(a=_AMMONIA_A.copy(), n_mat=(n_mat + n_mat.T) / 2.0, k_mat=np.eye(9))


# ---------------------------------------------------------------------------
# Problem sources and benchmark suites
# ---------------------------------------------------------------------------

#: Generator names a ProblemSource may reference.
GENERATORS = (
    "sylvester_tridiagonal",
    "care_tridiagonal",
    "ammonia_reactor",
)


@dataclass(frozen=True)
class ProblemSource:
    """Reproducible recipe for one benchmark problem: a generator ``name``
    from :data:`GENERATORS` with its generator-specific ``params``."""

    name: str
    order: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in GENERATORS:
            raise ValueError(f"unknown generator {self.name!r}")
        if self.order < 1:
            raise ValueError("order must be positive")

    def build(self):
        """Instantiate the problem this source describes."""
        if self.name == "ammonia_reactor":
            return ammonia_reactor()
        n = self.order
        if self.name == "sylvester_tridiagonal":
            a = gen_tridiagonal(n, *self.params["a"])
            b = gen_tridiagonal(n, *self.params["b"])
            return SylvesterProblem(a=a, b=b, c=np.eye(n))
        if self.name == "care_tridiagonal":
            a = gen_tridiagonal(n, *self.params["a"])
            bt = gen_tridiagonal(n, *self.params["bt"])
            b = bt.T
            n_mat = b @ b.T
            return CareProblem(
                a=a, n_mat=(n_mat + n_mat.T) / 2.0, k_mat=np.eye(n)
            )


@dataclass(frozen=True)
class SuiteRow:
    """One table row: a problem, a method, its parameters, and the
    published reference figures (never consulted by solver logic)."""

    source: ProblemSource
    method: str
    params: dict
    desk_scale: bool
    paper_iterations: int | None = None
    paper_error: float | None = None
    paper_time_seconds: float | None = None


DESK_SCALE_MAX_ORDER = 256

_SYLVESTER_FAMILIES = {
    # table id -> (A bands, B bands)
    "t1": ((2.0, -4.0, -4.0), (1.0, 3.0, 3.0)),
    "t2": ((2.0, -4.0, -4.0), (1.0, 3.0, 3.0)),
    "t3": ((2.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
    "t4": ((2.0, -1.0, -1.0), (4.0, 1.0, 1.0)),
    "t5": ((3.0, -2.0, -2.0), (6.0, 2.0, 2.0)),
    "t6": ((5.0, -1.0, -1.0), (6.0, 2.0, 2.0)),
}

_CARE_FAMILIES = {
    # table id -> (A bands, B^T bands); N = B B^T, K = I_n
    "t8": ((6.0, 2.0, 1.0), (5.0, 2.0, 1.0)),
    "t9": ((6.0, 2.0, 1.0), (5.0, 2.0, 1.0)),
    "t10": ((3.0, 1.0, 1.0), (6.0, 2.0, 2.0)),
}


def sylvester_family(table_id: str, n: int) -> ProblemSource:
    a_bands, b_bands = _SYLVESTER_FAMILIES[table_id]
    return ProblemSource(
        name="sylvester_tridiagonal",
        order=n,
        params={"a": a_bands, "b": b_bands},
    )


def care_family(table_id: str, n: int) -> ProblemSource:
    a_bands, bt_bands = _CARE_FAMILIES[table_id]
    return ProblemSource(
        name="care_tridiagonal",
        order=n,
        params={"a": a_bands, "bt": bt_bands},
    )


def table_source(table_id: str, n: int) -> ProblemSource:
    """The problem of reference table ``table_id`` at order ``n``; t7's
    ammonia reactor has the fixed order 9 and ignores ``n``."""
    if table_id == "t7":
        return ProblemSource(name="ammonia_reactor", order=9)
    if table_id in _SYLVESTER_FAMILIES:
        return sylvester_family(table_id, n)
    if table_id in _CARE_FAMILIES:
        return care_family(table_id, n)
    raise UnknownSuiteError(f"unknown suite {table_id!r}; expected one of {', '.join(SUITE_IDS)}")


def _rows(family, table_id, entries):
    return [
        SuiteRow(
            source=family(table_id, n),
            method=method,
            params=params,
            desk_scale=n <= DESK_SCALE_MAX_ORDER,
            paper_iterations=iters,
            paper_error=err,
            paper_time_seconds=secs,
        )
        for method, n, params, iters, err, secs in entries
    ]


def _suite_t1():
    entries = [
        ("ccom", 10, {}, 1, 6.0905e-13, 0.05),
        ("ccom", 100, {}, 1, 1.1574e-09, 22.8),
        ("ccom", 200, {}, 2, 1.9798e-09, 2288.0),
    ]
    return _rows(sylvester_family, "t1", entries)


def _suite_t2():
    # Same family and counts as t1; the published run differs only in the
    # factorization shortcut, which this implementation always uses.
    entries = [
        ("ccom", 10, {}, 1, 6.0905e-13, 0.01),
        ("ccom", 100, {}, 1, 1.1574e-09, 19.0),
        ("ccom", 200, {}, 2, 1.9798e-09, 1860.0),
    ]
    return _rows(sylvester_family, "t2", entries)


def _suite_t3():
    entries = [
        ("ccom", 10, {}, 1, 1.2560e-13, 0.002),
        ("ccom", 100, {}, 1, 2.3124e-09, 14.0),
        ("ccom", 200, {}, 1, 4.9651e-09, 640.0),
    ]
    return _rows(sylvester_family, "t3", entries)


def _suite_t4():
    qn = {"linesearch": "armijo"}
    entries = [
        ("dfp", 128, qn, 316, 9.4577e-08, 5.6),
        ("dfp", 256, qn, 287, 4.8782e-07, 22.0),
        ("dfp", 512, qn, 275, 9.6180e-07, 170.0),
        ("dfp", 1024, qn, 246, 4.9609e-07, 1815.0),
    ]
    return _rows(sylvester_family, "t4", entries)


def _suite_t5():
    entries = []
    refs = {
        "dfp": (3, 9.3259e-15),
        "bfgs": (3, 1.5774e-16),
        "ar": (3, 1.1102e-16),
    }
    times = {
        128: {"dfp": 0.04, "bfgs": 0.04, "ar": 0.09},
        256: {"dfp": 0.21, "bfgs": 0.22, "ar": 0.18},
        512: {"dfp": 0.98, "bfgs": 1.02, "ar": 1.03},
        1024: {"dfp": 4.87, "bfgs": 4.87, "ar": 8.59},
        2048: {"dfp": 31.0, "bfgs": 33.0, "ar": 73.0},
        4096: {"dfp": 191.0, "bfgs": 196.0, "ar": 268.0},
    }
    for n in (128, 256, 512, 1024, 2048, 4096):
        for method in ("dfp", "bfgs", "ar"):
            iters, err = refs[method]
            entries.append((method, n, {}, iters, err, times[n][method]))
    return _rows(sylvester_family, "t5", entries)


def _suite_t6():
    refs = {
        128: {"dfp": (3, 2.3697e-14, 0.05), "bfgs": (3, 1.2619e-16, 0.05),
              "cg": (15, 6.2321e-15, 0.18), "ar": (3, 4.1425e-15, 0.14)},
        256: {"dfp": (3, 2.7295e-14, 0.21), "bfgs": (3, 1.2619e-16, 0.23),
              "cg": (15, 6.1485e-15, 0.65), "ar": (3, 5.3648e-15, 0.33)},
        512: {"dfp": (3, 2.7295e-14, 1.03), "bfgs": (3, 1.2619e-16, 1.15),
              "cg": (15, 6.0531e-15, 3.32), "ar": (3, 7.3523e-15, 2.03)},
        1024: {"dfp": (3, 2.7327e-14, 6.05), "bfgs": (3, 1.2619e-16, 6.37),
               "cg": (15, 5.9917e-15, 33.0), "ar": (3, 1.1720e-14, 20.0)},
        2048: {"dfp": (3, 2.7295e-14, 34.0), "bfgs": (3, 1.3900e-16, 36.0),
               "cg": (15, 5.9576e-15, 289.0), "ar": (3, 1.9263e-14, 170.0)},
        4096: {"dfp": (3, 2.7295e-14, 178.0), "bfgs": (3, 1.2619e-16, 224.0),
               "cg": (15, 5.9397e-15, 764.0), "ar": (3, 1.1815e-14, 1268.0)},
    }
    entries = []
    for n, per_method in refs.items():
        for method, (iters, err, secs) in per_method.items():
            entries.append((method, n, {}, iters, err, secs))
    return _rows(sylvester_family, "t6", entries)


def _suite_t7():
    rows = []
    triples = [
        (0.0465, 63.51, 0.0428, 6715, 9.9961e-09, 0.2292),
        (0.2, 100.0, 0.01, 17869, 8.5193e-09, 1.0675),
        (0.2, 100.0, 0.1, 12329, 9.9939e-09, 0.6784),
    ]
    source = table_source("t7", 9)
    for alpha, beta, gamma, iters, err, secs in triples:
        rows.append(
            SuiteRow(
                source=source,
                method="admm",
                params={"alpha": alpha, "beta": beta, "gamma": gamma},
                desk_scale=True,
                paper_iterations=iters,
                paper_error=err,
                paper_time_seconds=secs,
            )
        )
    return rows


_T8_REFS = {
    16: ((563, 9.9673e-09, 0.05), (83, 6.0989e-08, 0.09)),
    32: ((602, 9.9315e-09, 0.15), (76, 6.2125e-08, 0.11)),
    64: ((627, 9.4188e-09, 0.38), (76, 6.5353e-08, 0.52)),
    128: ((641, 9.8931e-09, 1.60), (76, 6.2467e-08, 1.38)),
    256: ((661, 9.8646e-09, 6.67), (76, 7.0731e-08, 4.97)),
    512: ((674, 9.9501e-09, 38.0), (76, 7.5188e-08, 23.0)),
    1024: ((687, 9.9190e-09, 227.0), (76, 7.8919e-08, 104.0)),
    2048: ((700, 9.8274e-09, 2129.0), (76, 8.3520e-08, 983.0)),
    4096: ((713, 9.7108e-09, 25223.0), (76, 8.8869e-07, 7129.0)),
}


def _suite_t8():
    admm_params = {"alpha": 0.91, "beta": 2.8, "gamma": 0.0014}
    entries = []
    for n, (admm_ref, newton_ref) in _T8_REFS.items():
        entries.append(("admm", n, admm_params, *admm_ref))
        entries.append(("newton", n, {}, *newton_ref))
    return _rows(care_family, "t8", entries)


_T9_REFS = {
    16: ((448, 2.5323e-10, 0.03), (83, 6.0989e-08, 0.09)),
    32: ((453, 3.7771e-10, 0.08), (83, 6.9049e-08, 0.18)),
    64: ((455, 4.0151e-10, 0.18), (83, 6.8379e-08, 0.89)),
    128: ((467, 4.1344e-10, 1.09), (83, 7.0817e-08, 2.27)),
    256: ((472, 4.1654e-10, 4.32), (83, 7.7239e-08, 6.51)),
    512: ((474, 4.1731e-10, 20.0), (83, 8.3165e-08, 28.0)),
    1024: ((488, 4.1751e-10, 103.0), (83, 9.6813e-08, 148.0)),
    2048: ((491, 4.1757e-10, 887.0), (83, 9.7205e-08, 1037.0)),
    4096: ((493, 4.1758e-10, 9657.0), (83, 1.1359e-07, 11048.0)),
}

_T10_REFS = {
    16: ((373, 4.0583e-11, 0.02), (76, 6.0918e-08, 0.05)),
    32: ((353, 5.0978e-11, 0.06), (76, 6.2125e-08, 0.11)),
    64: ((361, 6.1431e-11, 0.17), (76, 6.5353e-08, 0.52)),
    128: ((362, 6.4471e-11, 0.87), (76, 6.2467e-08, 1.38)),
    256: ((367, 6.5266e-11, 3.88), (76, 7.0731e-08, 4.97)),
    512: ((374, 6.5468e-11, 18.0), (76, 7.5188e-08, 23.0)),
    1024: ((378, 6.5520e-11, 88.0), (76, 7.8919e-08, 104.0)),
    2048: ((383, 6.5531e-11, 834.0), (76, 8.3520e-08, 983.0)),
    4096: ((390, 6.5537e-11, 6534.0), (76, 8.8869e-07, 7129.0)),
}


def _suite_newton_admm(table_id, refs, alpha, beta):
    na_params = {"alpha": alpha, "beta": beta}
    entries = []
    for n, (na_ref, newton_ref) in refs.items():
        entries.append(("newton-admm", n, na_params, *na_ref))
        entries.append(("newton", n, {}, *newton_ref))
    return _rows(care_family, table_id, entries)


_SUITES = {
    "t1": _suite_t1,
    "t2": _suite_t2,
    "t3": _suite_t3,
    "t4": _suite_t4,
    "t5": _suite_t5,
    "t6": _suite_t6,
    "t7": _suite_t7,
    "t8": _suite_t8,
    "t9": lambda: _suite_newton_admm("t9", _T9_REFS, 0.8, 53.5),
    "t10": lambda: _suite_newton_admm("t10", _T10_REFS, 0.8, 45.0),
}

SUITE_IDS = tuple(sorted(_SUITES, key=lambda s: int(s[1:])))


def paper_suite(table_id: str) -> list[SuiteRow]:
    """Manifest rows for one reference table (``t1`` .. ``t10``)."""
    try:
        factory = _SUITES[table_id]
    except KeyError:
        raise UnknownSuiteError(
            f"unknown suite {table_id!r}; expected one of {', '.join(SUITE_IDS)}"
        ) from None
    return factory()
