"""Greedy reduced-basis construction and orthogonal projection.

The basis is grown by a strong greedy sweep: each step adds the training
waveform whose projection error (in the weighted discrete norm) is largest,
orthonormalizes its residual by modified Gram-Schmidt with one
reorthogonalization pass, and records the squared maximum projection error.

Basis rows are stored Euclidean-orthonormal (sum_t conj(e_i) e_j = delta_ij).
Because the discrete norm applies a single uniform weight dt, projection onto
the span is the same operator in both norms; dt enters only when errors are
measured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import (LengthMismatch, ParseError, TimeGrid, TrainingSet, read_waveform_csv,
                      write_waveform_csv)
from .numerics import error_floor_sq
from ._fileio import atomic_write_text, fmt_float

DEFAULT_TOL = 1e-12

_DEGENERATE_FACTOR = 1e-14  # residual below this times the seed norm is noise


class EmptyTraining(Exception):
    """The training set holds no waveforms."""


class DegenerateResidual(Exception):
    """The best remaining residual is at roundoff level before the tolerance
    was reached: the training set is numerically degenerate."""


class BadTruncation(Exception):
    """Requested truncation order is outside 1..n."""


@dataclass(frozen=True)
class ReducedBasis:
    """Orthonormal reduced basis with its greedy history.

    ``basis`` is (n, L) with Euclidean-orthonormal rows. ``greedy_errors[m-1]``
    is the squared maximum weighted projection error over the training set
    after m basis vectors. ``greedy_params`` holds the training-row index
    selected at each step.
    """

    grid: TimeGrid
    basis: np.ndarray
    greedy_errors: np.ndarray
    greedy_params: tuple[int, ...]
    tol: float

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.complex128)
        errors = np.asarray(self.greedy_errors, dtype=float)
        if basis.ndim != 2 or basis.shape[0] < 1:
            raise ValueError(f"basis must be a nonempty 2-d array, got {basis.shape}")
        if basis.shape[1] != self.grid.n_samples:
            raise LengthMismatch(
                f"basis rows have length {basis.shape[1]}, grid has "
                f"{self.grid.n_samples} samples"
            )
        if errors.shape != (basis.shape[0],):
            raise ValueError("need one greedy error per basis vector")
        gram = basis @ basis.conj().T
        if np.max(np.abs(gram - np.eye(basis.shape[0]))) > 1e-10:
            raise ValueError("basis rows are not orthonormal to 1e-10")
        floor = error_floor_sq(errors[0])
        for a, b in zip(errors, errors[1:]):
            if b > a * (1.0 + 1e-14) + floor:
                raise ValueError("greedy errors must be nonincreasing")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "greedy_errors", errors)
        object.__setattr__(self, "greedy_params", tuple(int(i) for i in self.greedy_params))

    @property
    def n(self) -> int:
        return self.basis.shape[0]


def build_reduced_basis(ts: TrainingSet, tol: float = DEFAULT_TOL,
                        n_max: int | None = None) -> ReducedBasis:
    """Run the strong greedy sweep over a training set.

    Parameters
    ----------
    ts : TrainingSet
        Source waveforms.
    tol : float
        Stop once the squared maximum weighted projection error drops to
        ``tol`` or below.
    n_max : int, optional
        Hard cap on the basis size; defaults to the number of training rows.
        Whichever of the two stopping rules triggers first wins.

    Raises
    ------
    DegenerateResidual
        If the selected residual falls to roundoff level (1e-14 of the seed
        norm) while the error is still above ``tol``.
    """
    samples = ts.samples
    k, _ = samples.shape
    if k == 0:
        raise EmptyTraining("training set holds no waveforms")
    if tol <= 0 and (n_max is None or n_max < 1):
        raise ValueError("need tol > 0 or n_max >= 1")
    cap = k if n_max is None else min(n_max, k)
    dt = ts.grid.dt

    # Seed with the waveform of largest weighted norm; ties pick the lowest row.
    norms_sq = np.einsum("ij,ij->i", samples.conj(), samples).real * dt
    seed = int(np.argmax(norms_sq))
    seed_norm = float(np.sqrt(norms_sq[seed]))

    residual = samples.astype(np.complex128, copy=True)
    basis_rows: list[np.ndarray] = []
    selected = [seed]
    errors: list[float] = []

    row = residual[seed]
    e = row / np.linalg.norm(row)
    basis_rows.append(e)
    residual -= np.outer(residual @ e.conj(), e)

    while True:
        errs_sq = np.einsum("ij,ij->i", residual.conj(), residual).real * dt
        sigma_sq = float(errs_sq.max())
        errors.append(sigma_sq)
        m = len(basis_rows)
        if sigma_sq <= tol or m >= cap:
            break
        pick = int(np.argmax(errs_sq))
        vec = residual[pick].copy()
        if np.sqrt(errs_sq[pick]) <= _DEGENERATE_FACTOR * seed_norm:
            raise DegenerateResidual(
                f"residual at step {m + 1} is at roundoff level "
                f"({np.sqrt(errs_sq[pick]):.3e}) before tol={tol:.3e} was met"
            )
        # One reorthogonalization pass keeps orthonormality near machine precision.
        for b in basis_rows:
            vec -= (b.conj() @ vec) * b
        norm = np.linalg.norm(vec)
        if norm * np.sqrt(dt) <= _DEGENERATE_FACTOR * seed_norm:
            raise DegenerateResidual(
                f"residual at step {m + 1} collapsed during reorthogonalization"
            )
        e = vec / norm
        basis_rows.append(e)
        selected.append(pick)
        residual -= np.outer(residual @ e.conj(), e)

    return ReducedBasis(
        grid=ts.grid,
        basis=np.vstack(basis_rows),
        greedy_errors=np.asarray(errors),
        greedy_params=tuple(selected),
        tol=tol,
    )


def _check_truncation(rb: ReducedBasis, n: int) -> None:
    if not 1 <= n <= rb.n:
        raise BadTruncation(f"truncation order {n} outside 1..{rb.n}")


def project(rb: ReducedBasis, h, n: int) -> np.ndarray:
    """Orthogonal projection of ``h`` onto the span of the first n basis rows."""
    _check_truncation(rb, n)
    hv = np.asarray(h, dtype=np.complex128)
    if hv.shape != (rb.grid.n_samples,):
        raise LengthMismatch(f"waveform has shape {hv.shape}, grid expects "
                             f"({rb.grid.n_samples},)")
    coeff = rb.basis[:n].conj() @ hv
    return coeff @ rb.basis[:n]


def projection_error_sq(rb: ReducedBasis, h, n: int) -> float:
    """Squared weighted projection error ||h - P_n h||_d^2."""
    r = np.asarray(h, dtype=np.complex128) - project(rb, h, n)
    return float(np.vdot(r, r).real) * rb.grid.dt


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_basis_csv(rb: ReducedBasis, path) -> None:
    """Write basis rows in the waveform CSV format with kind=basis and d=0."""
    write_waveform_csv(path, rb.grid, np.empty((rb.n, 0)), rb.basis, kind="basis")


def load_basis_csv(path) -> tuple[TimeGrid, np.ndarray]:
    """Read back a basis CSV; returns (grid, basis rows)."""
    grid, _, samples, kind = read_waveform_csv(path)
    if kind != "basis":
        raise ParseError(f"line 1: expected kind=basis, found kind={kind}")
    return grid, samples


def save_greedy_errors_csv(rb: ReducedBasis, path) -> None:
    """Two-column CSV (n, sigma_sq) of the greedy error curve."""
    lines = ["n,sigma_sq"]
    lines += [f"{m + 1},{fmt_float(err)}" for m, err in enumerate(rb.greedy_errors)]
    atomic_write_text(path, "\n".join(lines) + "\n")
