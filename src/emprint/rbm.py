"""Greedy reduced-basis construction and its serialization.

The basis is grown by a strong greedy sweep: each step adds the training
waveform whose projection error (in the weighted discrete norm
sqrt(sum |h|^2 dt)) is largest, orthonormalizes its residual by modified
Gram-Schmidt with one reorthogonalization pass, and records the squared
maximum projection error. The seed is the sweep's first pick, the waveform
of largest norm, and passes the same roundoff test as every later pick.

Each step allocates no K x L temporary: the squared residual norms are sums
of squares over the residual's real view (real and imaginary parts side by
side), and the new basis row is removed from the residual in place by one
BLAS rank-1 update (``zgeru``) of its Fortran-ordered transpose. Every pick,
the seed included, is the lowest row whose error ties the largest within
``numerics.TIE_REL_TOL``, so twins of equal norm in exact arithmetic, such
as mirrored waveforms, resolve by index and not by roundoff.

Basis rows are stored Euclidean-orthonormal (sum_t conj(e_i) e_j = delta_ij).
Because the discrete norm applies a single uniform weight dt, projection onto
the span is the same operator in both norms; dt enters only when errors are
measured.

A basis swept from a training CSV can be kept in a binary copy, so that
later commands on the same data read it instead of sweeping again. The copy
is one ASCII line ``emprint-basis v1 csv=<hex> code=<hex> tol=<float>
n_max=<int|none> n=<n> l=<L>``, then the n greedy errors, the n picks and
the n x 2L basis values (re, im of each sample, row by row) as
little-endian doubles. ``csv`` is the tree digest of the training CSV's
bytes (see ``catalog``) and ``code`` the SHA-256 of the package's numerical
source, the numpy and scipy versions and the BLAS kernel's arithmetic
(``_code_digest``), so the header names everything that decides the
sweep's bits. ``load_basis_copy`` trusts
a copy only when its header is that of the current run, its payload has
exactly that size and ``ReducedBasis`` accepts what it holds; deleting a
copy is always safe.
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.linalg.blas import zgeru

from .catalog import InvalidRange, LengthMismatch, TimeGrid, TrainingSet, waveform_csv
from .numerics import argmax_tied, error_floor_sq
from ._fileio import keyed_copy, read_keyed_copy, table
from ._record import record

DEFAULT_TOL = 1e-12

BASIS_COPY_MAGIC = "emprint-basis v1"

_DEGENERATE_FACTOR = 1e-14  # residual below this times the seed norm is noise


class DegenerateResidual(Exception):
    """The best remaining residual is at roundoff level before the tolerance
    was reached: the training set is numerically degenerate. This includes
    a training set whose largest waveform has zero norm."""


@record
class ReducedBasis:
    """Orthonormal reduced basis with its greedy history.

    ``basis`` is (n, L) with Euclidean-orthonormal rows. ``greedy_errors[m-1]``
    is the squared maximum weighted projection error over the training set
    after m basis vectors. ``greedy_params`` holds the training-row index
    selected at each step, one per basis vector.
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
        if len(self.greedy_params) != basis.shape[0]:
            raise ValueError("need one greedy pick per basis vector")
        # Both gates are written so that a NaN fails them.
        gram = basis @ basis.conj().T
        if not np.max(np.abs(gram - np.eye(basis.shape[0]))) <= 1e-10:
            raise ValueError("basis rows are not orthonormal to 1e-10")
        floor = error_floor_sq(errors[0])
        if not (np.isfinite(errors[0])
                and np.all(errors[1:] <= errors[:-1] * (1.0 + 1e-14) + floor)):
            raise ValueError("greedy errors must be finite and nonincreasing")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "greedy_errors", errors)
        object.__setattr__(self, "greedy_params", tuple(int(i) for i in self.greedy_params))

    @property
    def n(self) -> int:
        return self.basis.shape[0]


def build_reduced_basis(ts: TrainingSet, tol: float = DEFAULT_TOL,
                        n_max: int | None = None) -> ReducedBasis:
    """Run the strong greedy sweep over a training set.

    The seed is the sweep's first pick, the waveform of largest weighted
    norm; its norm scales the roundoff test that every pick, the seed
    included, must pass. Every pick is ``numerics.argmax_tied`` of the
    squared residual norms, which are sums of squares over the residual's
    real view. Each new basis row e leaves the residual in place,
    residual -= (residual e^H) e, by ``zgeru`` on the residual's transpose.

    Parameters
    ----------
    ts : TrainingSet
        Source waveforms.
    tol : float
        Stop once the squared maximum weighted projection error drops to
        ``tol`` or below; must be > 0.
    n_max : int, optional
        Hard cap on the basis size, >= 1; defaults to the number of training
        rows. Whichever of the two stopping rules triggers first wins.

    Raises
    ------
    InvalidRange
        If ``tol`` is not > 0 (NaN included) or ``n_max`` is below 1.
    DegenerateResidual
        If the selected residual, after reorthogonalization, falls to
        roundoff level (1e-14 of the seed norm) or is NaN while the error is
        still above ``tol``. A training set whose largest waveform has zero
        norm raises it at step 1.
    """
    # Written so that a NaN tol fails.
    if not tol > 0:
        raise InvalidRange(f"tol must be positive, got {tol}")
    if n_max is not None and n_max < 1:
        raise InvalidRange(f"n_max must be >= 1, got {n_max}")
    cap = ts.k if n_max is None else min(n_max, ts.k)
    dt = ts.grid.dt

    # C order, so the real view below is (K, 2L) and residual.T is the
    # Fortran-ordered matrix zgeru updates in place.
    residual = np.array(ts.samples, dtype=np.complex128, order="C")
    basis_rows: list[np.ndarray] = []
    selected: list[int] = []
    errors: list[float] = []

    while True:
        parts = residual.view(np.float64)
        errs_sq = np.einsum("ij,ij->i", parts, parts) * dt
        pick = argmax_tied(errs_sq)
        sigma_sq = float(errs_sq[pick])
        m = len(basis_rows)
        if m == 0:
            seed_norm = np.sqrt(sigma_sq)
        else:
            errors.append(sigma_sq)
            if sigma_sq <= tol or m >= cap:
                break
        vec = residual[pick].copy()
        # One reorthogonalization pass keeps orthonormality near machine precision.
        for b in basis_rows:
            vec -= (b.conj() @ vec) * b
        norm = np.linalg.norm(vec)
        # Written so that a NaN norm fails too.
        if not norm * np.sqrt(dt) > _DEGENERATE_FACTOR * seed_norm:
            raise DegenerateResidual(
                f"residual at step {m + 1} is at roundoff level "
                f"({norm * np.sqrt(dt):.3e}) before tol={tol:.3e} was met"
            )
        e = vec / norm
        basis_rows.append(e)
        selected.append(pick)
        # residual -= c e with c = residual e^H, as a rank-1 update of the
        # transpose; rebinding keeps it right should f2py hand back a copy.
        residual = zgeru(-1.0, e, residual @ e.conj(), a=residual.T, overwrite_a=True).T

    return ReducedBasis(
        grid=ts.grid,
        basis=np.vstack(basis_rows),
        greedy_errors=np.asarray(errors),
        greedy_params=tuple(selected),
        tol=tol,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def basis_csv(rb: ReducedBasis) -> list:
    """The basis rows in the waveform CSV format with kind=basis and d=0, as
    ``catalog.waveform_csv`` gives them."""
    return waveform_csv(rb.grid, np.empty((rb.n, 0)), rb.basis, kind="basis")


def greedy_errors_csv(rb: ReducedBasis) -> bytes:
    """Two-column CSV (n, sigma_sq) of the greedy error curve."""
    return table(["n", "sigma_sq"], enumerate(rb.greedy_errors, start=1))


@functools.cache
def _code_digest() -> str:
    """SHA-256 of the code that decides the bits of a sweep and of a node
    selection: the numpy and scipy versions, the source of this module, of
    ``numerics`` and of ``eim``, and the BLAS arithmetic. The last is the
    bytes of fixed small results of the routines those call (zgemm, zgemv,
    zgeru, gesdd, geqrf), which differ between OpenBLAS kernels."""
    digest = hashlib.sha256(f"numpy {np.__version__} scipy {scipy.__version__}".encode())
    for name in ("rbm.py", "numerics.py", "eim.py"):
        digest.update(Path(__file__).with_name(name).read_bytes())
    a = np.random.default_rng(0).standard_normal((16, 32)).view(np.complex128)
    for result in (a @ a.conj().T, a @ a[0], zgeru(-1.0, a[0], a[1], a=a.T.copy(order="F")),
                   np.linalg.svd(a, compute_uv=False), scipy.linalg.qr(a.T)[1]):
        digest.update(result.tobytes())
    return digest.hexdigest()


def _copy_key(csv_digest: str, tol: float, n_max: int | None) -> str:
    """Header fields of a binary copy that name its training CSV, code and
    sweep options."""
    return (f"csv={csv_digest} code={_code_digest()} tol={float(tol)!r} "
            f"n_max={'none' if n_max is None else int(n_max)}")


def _basis_header(csv_digest: str, tol: float, n_max: int | None, n: int, l: int) -> str:
    return f"{BASIS_COPY_MAGIC} {_copy_key(csv_digest, tol, n_max)} n={n} l={l}"


def basis_copy(rb: ReducedBasis, csv_digest: str, n_max: int | None = None) -> list:
    """The binary copy of ``rb``, swept from the training CSV of digest
    ``csv_digest`` with cap ``n_max`` (see the module docstring), as
    ``_fileio.keyed_copy`` gives it."""
    return keyed_copy(_basis_header(csv_digest, rb.tol, n_max, rb.n, rb.grid.n_samples),
                      rb.greedy_errors, rb.greedy_params,
                      np.ascontiguousarray(rb.basis).view(np.float64))


def load_basis_copy(path, ts: TrainingSet, tol: float,
                    n_max: int | None = None) -> ReducedBasis | None:
    """The basis that ``build_reduced_basis(ts, tol, n_max)`` returns, read
    from the copy at ``path``, or None when there is no copy that may be
    trusted.

    A copy is trusted only when its header is the one this run would write
    (the digest ``ts.csv_digest``, this code, ``tol``, ``n_max`` and the
    grid's L), its payload holds exactly n(2 + 2L) doubles for its n >= 1,
    its picks are distinct rows of ``ts`` and ``ReducedBasis`` accepts the
    result. Anything else returns None: a set built in memory, which has
    no digest (the file is then not opened), or a missing or unreadable
    file included.
    """
    if ts.csv_digest is None:
        return None
    l = ts.grid.n_samples
    values = read_keyed_copy(
        path, lambda n: _basis_header(ts.csv_digest, tol, n_max, n, l), 2 + 2 * l)
    if values is None:
        return None
    n = values.size // (2 + 2 * l)
    errors, picks = values[:2 * n].reshape(2, n).tolist()
    if len(set(picks)) < n or not all(0 <= p < ts.k and p % 1 == 0 for p in picks):
        return None
    # A copy, so the basis is laid out in memory as the sweep's own.
    basis = values[2 * n:].view("<c16").astype(np.complex128).reshape(n, l)
    try:
        return ReducedBasis(ts.grid, basis, np.array(errors), tuple(map(int, picks)), tol)
    except ValueError:
        return None
