"""Closed-form solutions of the Sylvester problems that the orthonormal
DST-I matrix diagonalizes, which include every problem of tables t1-t6.

S, with entries sqrt(2 / (n + 1)) sin(pi j k / (n + 1)) for j, k = 1..n,
is symmetric and its own inverse, and S T S is diagonal for every
symmetric tridiagonal Toeplitz T.  When S_m A S_m = diag(lambda) and
S_n B S_n = diag(mu), A X + X B = C becomes an entrywise division:

    X* = S_m ((S_m C S_n) ./ (lambda_i + mu_j)) S_n.

A CARE A^T X + X A - X N X + I = 0 whose A and N the same S diagonalizes
(table t10, with N = B^2) splits into one scalar quadratic per mode,
2 a_i x - n_i x^2 + 1 = 0, with the two roots

    X+- = S diag((a_i +- sqrt(a_i^2 + n_i)) / n_i) S.

X+ is the stabilizing root (A - N X+ has eigenvalues -sqrt(a_i^2 + n_i)),
X- the anti-stabilizing one (eigenvalues +sqrt(a_i^2 + n_i)).

Test code only: no solver reads it.
"""

import numpy as np

# Largest ||offdiag(S T S)||_F / ||T||_F of a matrix T taken as diagonalized.
DIAGONAL_RTOL = 1e-12


def dst1(n: int) -> np.ndarray:
    """The orthonormal DST-I matrix of order ``n``."""
    k = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))


def dst1_eigenvalues(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The diagonal of s t s, for s = dst1(order of t); ValueError when s
    does not diagonalize ``t``."""
    d = s @ t @ s
    eigenvalues = np.diag(d)
    off = np.linalg.norm(d - np.diag(eigenvalues))
    if off > DIAGONAL_RTOL * np.linalg.norm(t):
        raise ValueError(f"DST-I leaves an off-diagonal part of norm {off:.1e}")
    return eigenvalues


def sylvester_solution(p) -> tuple[np.ndarray, float]:
    """X* of ``p`` (A X + X B = C) and min |lambda_i + mu_j|, the smallest
    singular value of its operator."""
    s_m, s_n = dst1(p.a.shape[0]), dst1(p.b.shape[0])
    sums = dst1_eigenvalues(p.a, s_m)[:, np.newaxis] + dst1_eigenvalues(p.b, s_n)
    return s_m @ ((s_m @ p.c @ s_n) / sums) @ s_n, float(np.abs(sums).min())


def care_roots(p) -> tuple[np.ndarray, np.ndarray, float]:
    """X+ and X- of the CARE ``p``, whose K must be the identity, and
    min sqrt(a_i^2 + n_i), the smallest closed-loop eigenvalue magnitude
    at either root."""
    if not np.array_equal(p.k_mat, np.eye(p.order)):
        raise ValueError("care_roots needs K = I")
    s = dst1(p.order)
    a, n = dst1_eigenvalues(p.a, s), dst1_eigenvalues(p.n_mat, s)
    root = np.sqrt(a * a + n)
    plus, minus = (s @ np.diag(v / n) @ s for v in (a + root, a - root))
    return plus, minus, float(root.min())
