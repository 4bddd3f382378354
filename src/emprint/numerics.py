"""Dense complex linear algebra kernels shared by the rest of the package.

Everything here operates on plain complex128 numpy arrays and is a pure
function of its inputs. Determinants come from LAPACK partial-pivoting LU
via scipy; singular values come from a dense SVD. Condition numbers and
inverse norms are defined through singular values, never through adjugates
or explicit inverses. No linear system is solved here: the interpolation
arithmetic is the elimination step in ``eim``, and the identity verifier
there takes its determinant ratios from a QR null vector instead of these
determinants. ``condition_and_inverse_norm`` returns the condition number
and the inverse norm from one singular-value computation; it also takes an
``(..., n, n)`` stack of matrices and then returns one value of each per
matrix, from the same per-matrix LAPACK call. ``determinant`` takes one
matrix. ``_svd`` is the one SVD entry point: it serves
``condition_and_inverse_norm`` and the full SVD of the chosen nodes' block
that ``eim`` prunes kappa/lambda candidates with, from which ``secular``
gives the smallest singular value of the block with one row appended, as
the root of a secular equation. The roundoff floor that error comparisons
across the package share also lives here, and so does the
one tie rule every greedy pick uses (``argmax_tied``, ``argmin_tied``):
values within ``TIE_REL_TOL`` of the best tie, and the lowest index wins, so
a pick between twins does not depend on summation order or the BLAS kernel.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg


class ConvergenceFailure(Exception):
    """The underlying singular-value computation failed to converge."""


# Squared errors at or below this, relative to the largest squared weighted
# norm of the data they are measured on (or absolute when that norm is at
# most 1), are indistinguishable from roundoff.
ERROR_FLOOR_SQ = 1e-28


def error_floor_sq(scale: float) -> float:
    """Roundoff floor ``ERROR_FLOOR_SQ * max(1, scale)`` for squared errors.

    ``scale`` is the largest squared weighted norm of the data the errors
    come from. Roundoff in a squared error grows with that norm, so a fixed
    absolute floor rejects exact results on data of large norm.
    """
    return ERROR_FLOOR_SQ * max(1.0, float(scale))


# Two objectives are "tied" when they agree to this relative tolerance; ties
# resolve to the lowest index for determinism.
TIE_REL_TOL = 1e-14


def argmax_tied(values: np.ndarray) -> int:
    """Lowest index whose value ties the maximum within TIE_REL_TOL."""
    best = float(values.max())
    return int(np.flatnonzero(values >= best * (1.0 - TIE_REL_TOL))[0])


def argmin_tied(values: np.ndarray) -> int:
    """Lowest index whose value ties the minimum within TIE_REL_TOL."""
    best = float(values.min())
    return int(np.flatnonzero(values <= best * (1.0 + TIE_REL_TOL))[0])


def _complex_matrices(a) -> np.ndarray:
    """Coerce ``a`` to a complex128 square matrix or ``(..., n, n)`` stack of
    them, rejecting empty, non-finite or non-square input."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] < 1 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def determinant(m) -> complex:
    """Determinant of one square complex matrix, from one LAPACK LU
    (``scipy.linalg.det``). Exactly singular input yields 0."""
    a = _complex_matrices(m)
    if a.ndim != 2:
        raise ValueError(f"expected one square matrix, got shape {a.shape}")
    return complex(scipy.linalg.det(a, check_finite=False))


def _svd(a: np.ndarray, compute_uv: bool):
    try:
        return np.linalg.svd(a, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def secular(d: np.ndarray, w2: np.ndarray, mu) -> tuple[np.ndarray, np.ndarray]:
    """Secular function of a row append, f(mu) = 1 + sum_i w2_i / (d_i - mu),
    and a bound on the rounding error of the computed f.

    Let A = U S W^H be the full SVD of an (m-1) x m block, d = (s_1^2, ...,
    s_{m-1}^2, 0) and w2 = |x W|^2 for an appended row x. The eigenvalues of
    V^H V, V = [A; x], are the roots of f (Bunch and Nielsen 1978, "Updating
    the singular value decomposition"). On (0, s_{m-1}^2) f increases through
    its one root there, sigma_min(V)^2; so f(mu) > 0 puts mu above
    sigma_min(V)^2 and f(mu) < 0 below it.

    ``w2`` holds one appended row per leading index, shape ``(..., m)``, and
    ``mu`` one point per row. The bound is 4 m eps (1 + sum_i |w2_i /
    (d_i - mu)|): a computed f above it is positive for exactly these ``d``
    and ``w2``. At mu = d_i the term is infinite.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = w2 / (d - mu[..., None])
        f = 1.0 + terms.sum(axis=-1)
        bound = 4 * d.size * np.finfo(np.float64).eps * (1.0 + np.abs(terms).sum(axis=-1))
    return f, bound


def condition_and_inverse_norm(m) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """2-norm condition number sigma_max / sigma_min and inverse 2-norm
    1 / sigma_min of a square matrix, from one singular-value computation;
    for an ``(..., n, n)`` stack, one array of each.

    Both are ``math.inf`` where the matrix is singular to working precision:
    sigma_min <= sigma_max * 1e-300, or 1 / sigma_min overflows. The test
    runs on 1 / sigma_min, since sigma_max * 1e-300 underflows to 0 for
    matrices of tiny norm.
    """
    a = _complex_matrices(m)
    s = _svd(a, compute_uv=False)
    s_max, s_min = s[..., 0], s[..., -1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1.0 / s_min
        singular = np.isinf(inv) | (s_max * inv >= 1e300)
        kappa = np.where(singular, math.inf, s_max / s_min)
        inv = np.where(singular, math.inf, inv)
    if a.ndim == 2:
        return float(kappa), float(inv)
    return kappa, inv
