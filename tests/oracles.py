"""Independent reference implementations used only by the tests.

These deliberately avoid the code paths of the package: the determinant
oracle is a recursive cofactor expansion, the norm oracle is plain power
iteration, parity is counted by inversions, the elimination step is a numpy
outer product subtracted from a copy, and interpolation residuals and
cardinal functions come from numpy linear solves. Determinant ratios over
the grid take one numpy LU determinant per candidate matrix. The first
repeated parameter row is found by a walk over a dict of the rows. Projections
and weighted norms are the textbook formulas. There are two exceptions.
``full_scan`` scores every kappa/lambda candidate with the package's own
objective, so it is the reference for which candidates the node selection
may leave unscored, not for the objective values. ``load_basis_csv`` reads
through the package's CSV reader, which has tests of its own.
"""

from __future__ import annotations

import math

import numpy as np

from emprint.catalog import ParseError, read_waveform_csv


def laplace_det(a: np.ndarray) -> complex:
    """Determinant by recursive cofactor expansion along the first row.

    Exponential cost; intended for matrices up to 6x6.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    assert a.shape == (n, n) and n <= 6
    if n == 1:
        return complex(a[0, 0])
    total = 0j
    cols = np.arange(n)
    for j in range(n):
        minor = a[1:][:, cols != j]
        total += (-1) ** j * a[0, j] * laplace_det(minor)
    return total


def power_iteration_two_norm(a: np.ndarray, tol: float = 1e-13,
                             max_iter: int = 200_000, seed: int = 7) -> float:
    """Largest singular value via power iteration on the Gram matrix."""
    a = np.asarray(a, dtype=complex)
    gram = a.conj().T @ a
    n = gram.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(max_iter):
        w = gram @ v
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        new_estimate = float(np.vdot(v, w).real)
        v = w / norm_w
        if estimate and abs(new_estimate - estimate) <= tol * abs(new_estimate):
            estimate = new_estimate
            break
        estimate = new_estimate
    return float(np.sqrt(max(estimate, 0.0)))


def permutation_parity(perm) -> int:
    """+1 for even permutations, -1 for odd, by counting inversions."""
    perm = list(perm)
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def random_complex(rng: np.random.Generator, *shape) -> np.ndarray:
    """Complex array with entries in the unit disk (scaled Gaussian pairs)."""
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    peak = np.abs(z).max()
    return z / peak if peak > 1 else z


def orthonormal_rows(rng: np.random.Generator, n: int, length: int) -> np.ndarray:
    """n random orthonormal rows of the given length."""
    z = rng.standard_normal((length, n)) + 1j * rng.standard_normal((length, n))
    q, _ = np.linalg.qr(z)
    return q[:, :n].T.copy()


def candidate_stack(basis_rows: np.ndarray, j: int, nodes) -> np.ndarray:
    """V_j(t) for every grid index t, as one (L, j, j) stack: the node-value
    matrix of the first j-1 ``nodes`` with t appended as node j."""
    rows = basis_rows[:j]
    stack = np.empty((rows.shape[1], j, j), dtype=complex)
    stack[:, : j - 1] = rows[:, list(nodes[: j - 1])].T
    stack[:, j - 1] = rows.T
    return stack


def full_scan(basis_rows: np.ndarray, j: int, nodes, objective, tie_rel_tol: float) -> int:
    """Step-j kappa/lambda pick from every candidate: ``objective`` of
    V_j(t), the node-value matrix of ``nodes`` (the first j-1 picks) with t
    appended, over one stack of all grid points t; chosen nodes are excluded
    and the lowest index within ``tie_rel_tol`` of the minimum wins."""
    values = np.asarray(objective(candidate_stack(basis_rows, j, nodes)), dtype=float)
    values[list(nodes)] = np.inf
    best = values.min()
    assert np.isfinite(best)
    return int(np.flatnonzero(values <= best * (1.0 + tie_rel_tol))[0])


def eliminate(x: np.ndarray, t: int, residual: np.ndarray) -> np.ndarray:
    """x - (x[:, t] / r(t)) r with r = ``residual``, as a new array: the
    elimination step through one numpy outer product."""
    return x - np.outer(x[:, t] / residual[t], residual)


def solve_residual(basis_rows: np.ndarray, j: int, nodes) -> np.ndarray:
    """r_j = e_j - I_{j-1}[e_j] over the grid, from one numpy linear solve
    with the node-value matrix of the first j-1 ``nodes``; r_1 = e_1."""
    if j == 1:
        return basis_rows[0].copy()
    prefix = list(nodes[: j - 1])
    coeff = np.linalg.solve(basis_rows[: j - 1][:, prefix].T, basis_rows[j - 1, prefix])
    return basis_rows[j - 1] - coeff @ basis_rows[: j - 1]


def lu_ratio_scan(basis_rows: np.ndarray, j: int, nodes) -> np.ndarray:
    """det V_j(t) / det V_{j-1} for every grid index t, j >= 2, from one
    numpy LU determinant per candidate V_j(t) (``candidate_stack``) and one
    for V_{j-1}, the node-value matrix of the first j-1 ``nodes``."""
    prefix = list(nodes[: j - 1])
    det_prev = np.linalg.det(basis_rows[: j - 1][:, prefix].T)
    return np.linalg.det(candidate_stack(basis_rows, j, nodes)) / det_prev


def cardinals(basis_rows: np.ndarray, nodes) -> np.ndarray:
    """Cardinal functions B_n = (V_n^T)^{-1} E_n as rows, from one numpy
    linear solve, with E_n the first n = len(``nodes``) basis rows and V_n
    their node-value matrix; B_i(T_k) = delta_ik."""
    rows = basis_rows[: len(nodes)]
    return np.linalg.solve(rows[:, list(nodes)], rows)


def weighted_norm(h: np.ndarray, dt: float) -> float:
    """Discrete L2 norm sqrt(sum |h|^2 dt) of a gridded waveform."""
    return math.sqrt(float(np.vdot(h, h).real) * dt)


def project(basis_rows: np.ndarray, h: np.ndarray, n: int) -> np.ndarray:
    """Orthogonal projection of ``h`` onto the span of the first n of the
    orthonormal ``basis_rows``."""
    return (basis_rows[:n].conj() @ h) @ basis_rows[:n]


def projection_error_sq(basis_rows: np.ndarray, h: np.ndarray, n: int, dt: float) -> float:
    """Squared weighted projection error ||h - P_n h||^2 with weight dt."""
    r = h - project(basis_rows, h, n)
    return float(np.vdot(r, r).real) * dt


def load_basis_csv(path):
    """(grid, basis rows) of a basis CSV as ``rbm.basis_csv`` gives it."""
    grid, _, samples, kind, _ = read_waveform_csv(path)
    if kind != "basis":
        raise ParseError(f"line 1: expected kind=basis, found kind={kind}")
    return grid, samples


def first_repeat(params: np.ndarray) -> tuple[int, int] | None:
    """(row, first): the lowest row whose parameters an earlier row holds,
    and the first such row, from a walk over a dict of the rows; None when
    the rows are pairwise distinct."""
    first_row = {}
    for row, p in enumerate(map(tuple, params.tolist())):
        if first_row.setdefault(p, row) != row:
            return row, first_row[p]
    return None
