"""Dense complex linear algebra kernels shared by the rest of the package.

Everything here operates on plain complex128 numpy arrays and is a pure
function of its inputs. Determinants come from LAPACK partial-pivoting LU
via scipy; singular values come from a dense SVD. Condition numbers and
inverse norms are defined through singular values, never through adjugates
or explicit inverses. No linear system is solved here: the interpolation
arithmetic is the elimination step in ``eim``, and the identity verifier
there takes its determinant ratios from a QR null vector instead of these
determinants. ``determinant``,
``condition_number_2`` and ``inverse_two_norm`` also take an ``(..., n, n)``
stack of matrices and then return one value per matrix, from the same
per-matrix LAPACK call. ``svd`` and ``secular`` give the smallest singular
value of a matrix with one row appended to a fixed block, as the root of a
secular equation. The roundoff floor that error comparisons across the
package share also lives here.
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


def _complex_matrices(a, square: bool) -> np.ndarray:
    """Coerce ``a`` to a complex128 matrix or ``(..., m, n)`` stack of them,
    rejecting empty, non-finite or (when ``square``) non-square input."""
    m = np.asarray(a, dtype=np.complex128)
    if (m.ndim < 2 or min(m.shape[-2:]) < 1
            or (square and m.shape[-2] != m.shape[-1])):
        kind = "square matrices" if square else "a nonempty matrix"
        raise ValueError(f"expected {kind}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def determinant(m) -> complex | np.ndarray:
    """Determinant of a square complex matrix, or an array of the
    determinants of an ``(..., n, n)`` stack, from one LAPACK LU per matrix
    (``scipy.linalg.det``). Exactly singular input yields 0."""
    a = _complex_matrices(m, square=True)
    det = scipy.linalg.det(a, check_finite=False)
    # scipy returns a scalar when every dimension of the stack is 1.
    return complex(det) if a.ndim == 2 else np.reshape(det, a.shape[:-2])


def _svd(a: np.ndarray, compute_uv: bool):
    try:
        return np.linalg.svd(a, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full singular value decomposition ``m = u @ diag(s) @ vh`` of a
    complex matrix (``diag(s)`` zero-padded to the shape of ``m``): unitary
    ``u`` and ``vh``, singular values ``s`` in descending order."""
    return _svd(_complex_matrices(m, square=False), compute_uv=True)


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


def _over_sigma_min(m, numerator_is_sigma_max: bool) -> float | np.ndarray:
    """sigma_max / sigma_min, or 1 / sigma_min, per matrix; ``inf`` where the
    matrix is singular to working precision: sigma_min <= sigma_max * 1e-300,
    or 1 / sigma_min overflows. The test runs on 1 / sigma_min, since
    sigma_max * 1e-300 underflows to 0 for matrices of tiny norm."""
    a = _complex_matrices(m, square=True)
    s = _svd(a, compute_uv=False)
    s_max, s_min = s[..., 0], s[..., -1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1.0 / s_min
        singular = np.isinf(inv) | (s_max * inv >= 1e300)
        value = np.where(singular, math.inf,
                         s_max / s_min if numerator_is_sigma_max else inv)
    return float(value) if a.ndim == 2 else value


def condition_number_2(m) -> float | np.ndarray:
    """2-norm condition number of a square matrix, or an array of them for
    an ``(..., n, n)`` stack.

    Returns ``math.inf`` where the matrix is singular to working precision
    (sigma_min <= sigma_max * 1e-300, or 1 / sigma_min overflows), so
    exactly where ``inverse_two_norm`` does.
    """
    return _over_sigma_min(m, numerator_is_sigma_max=True)


def inverse_two_norm(m) -> float | np.ndarray:
    """2-norm of the inverse of a square matrix, i.e. 1/sigma_min, or an
    array of them for an ``(..., n, n)`` stack.

    Returns ``math.inf`` where the matrix is singular to working precision.
    """
    return _over_sigma_min(m, numerator_is_sigma_max=False)
