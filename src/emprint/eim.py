"""Empirical interpolation: greedy node selection over the time grid, the
node-value matrix, cardinal functions, and interpolant evaluation.

Given an orthonormal basis e_1..e_n (rows of a ReducedBasis), an interpolant
of order n is fixed by n grid nodes T_1..T_n through the square node-value
matrix V[i, j] = e_j(T_i). Nodes are selected one at a time, so the node set
of order n-1 is always a prefix of the order-n set. Three selection rules are
supported for the node added at step j:

* classic: maximize |r_j(t)|, the residual of interpolating e_j with the
  previous j-1 nodes. Equivalently, this maximizes |det V_j| over the
  candidate rows.
* kappa:   minimize the 2-norm condition number of V_j with the candidate row
  appended.
* lambda:  minimize ||V_j^{-1}||, which for an orthonormal basis is the
  2-norm of the resulting interpolation operator (the Lebesgue constant).

The first node is the location of max |e_1| under every rule by default; an
opt-in flag applies each rule's own objective to the first node as well.

One elimination step is the only interpolation arithmetic. With r the
residual of the step that picked node t, it updates a stack of grid
functions X as X <- X - (X[:, t] / r(t)) r: Gaussian elimination with the
picks as pivots (Maday et al. 2009, "magic points"; Chaturantabut and
Sorensen 2010, DEIM). Applied to the basis rows below each pick, it leaves
row j as r_j = e_j - I_{j-1}[e_j] (r_1 = e_1), so node selection needs no
linear solve. The classic rule picks the argmax of |r_j|, and every step
record reports |r_j(T_j)| = |det V_j / det V_{j-1}| from it. Applied to the
cardinal functions it turns those of order j-1 into those of order j, with
B_j = r_j / r_j(T_j); applied to training samples it leaves, after n steps,
the interpolation error of every sample at order n.

The kappa/lambda rules take the classic pick as the incumbent. Every
candidate V_j(t) is the same block of chosen nodes with one row appended, so
one SVD of the block gives each candidate's smallest singular value as the
root of a secular equation (the row-append SVD update), and one evaluation
of it prunes every candidate that provably scores worse than the incumbent.
The survivors are scored exactly, in stacks of at most CANDIDATE_STACK,
under the lowest-index tie rule: the picks and every output are those of a
scan that scores every candidate. The identity verifier gets every
det V_j(t) / det V_{j-1} from one null vector of the chosen nodes' block per
step, taken from a Householder QR, independently of the elimination.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import numerics as nm
from .catalog import LengthMismatch
from .rbm import ReducedBasis
from ._fileio import atomic_write_text, fmt_float

# Two candidate objectives are "tied" when they agree to this relative
# tolerance; ties resolve to the lowest grid index for determinism.
TIE_REL_TOL = 1e-14

# Grid points per stack of candidate matrices V_j(t). One stack over a whole
# 2001-point grid raised a run's peak memory by 12%; 256 keeps it flat.
CANDIDATE_STACK = 256

# Relative slack on the objective to beat when pruning kappa/lambda
# candidates, far above TIE_REL_TOL: a candidate is scored exactly unless it
# provably scores worse than the incumbent by more than this.
PRUNE_MARGIN = 1e-8


class SingularVMatrix(Exception):
    """The node-value matrix is singular to working precision."""


class SelectionCriterion(enum.Enum):
    CLASSIC = "classic"
    MIN_KAPPA = "kappa"
    MIN_LAMBDA = "lambda"


@dataclass(frozen=True)
class StepRecord:
    """Diagnostics for one prefix of the node set.

    ``det_v``: determinant of the j x j node-value matrix.
    ``kappa``: its 2-norm condition number.
    ``lebesgue``: ||V_j^{-1}||, the Lebesgue constant for an orthonormal basis.
    ``residual_at_node``: |r_j(T_j)|; for j = 1 this is |e_1(T_1)|, matching
    the determinant ratio convention det(V_1)/det(V_0) with det(V_0) = 1.
    """

    det_v: complex
    kappa: float
    lebesgue: float
    residual_at_node: float


@dataclass(frozen=True)
class EmpiricalInterpolant:
    """Interpolation nodes plus everything needed to apply the interpolant.

    ``v_matrix`` is V[i, j] = e_j(T_i); ``b_matrix`` holds the cardinal
    functions as rows, B_i = sum_j (V^{-1})_{ji} e_j, which satisfy
    B_i(T_j) = delta_ij. ``residuals`` holds r_1..r_n as rows, r_j = e_j -
    I_{j-1}[e_j] over the grid. ``per_step`` has one StepRecord per prefix
    order.
    """

    basis: ReducedBasis
    n: int
    node_indices: tuple[int, ...]
    v_matrix: np.ndarray
    b_matrix: np.ndarray
    residuals: np.ndarray
    criterion: SelectionCriterion
    per_step: tuple[StepRecord, ...]

    def __post_init__(self):
        nodes = tuple(int(i) for i in self.node_indices)
        if len(nodes) != self.n or len(set(nodes)) != self.n:
            raise ValueError("node indices must be distinct and match n")
        if self.v_matrix.shape != (self.n, self.n):
            raise ValueError("v_matrix shape mismatch")
        if self.b_matrix.shape != (self.n, self.basis.grid.n_samples):
            raise ValueError("b_matrix shape mismatch")
        if self.residuals.shape != self.b_matrix.shape:
            raise ValueError("residuals shape mismatch")
        cardinal = self.b_matrix[:, list(nodes)]
        if np.max(np.abs(cardinal - np.eye(self.n))) > 1e-10:
            raise SingularVMatrix(
                "cardinal property violated beyond 1e-10; node-value matrix "
                "is too ill-conditioned"
            )
        object.__setattr__(self, "node_indices", nodes)


def _argmax_tied(values: np.ndarray) -> int:
    """Lowest index whose value ties the maximum within TIE_REL_TOL."""
    best = float(values.max())
    return int(np.flatnonzero(values >= best * (1.0 - TIE_REL_TOL))[0])


def _argmin_tied(values: np.ndarray) -> int:
    """Lowest index whose value ties the minimum within TIE_REL_TOL."""
    best = float(values.min())
    return int(np.flatnonzero(values <= best * (1.0 + TIE_REL_TOL))[0])


def _candidates(basis_rows: np.ndarray, j: int, nodes: list[int], columns):
    """V_j(t) for each grid index t in ``columns``, in that order: the
    node-value matrix of the first j-1 nodes with t appended as node j, as
    (m, j, j) stacks of m <= CANDIDATE_STACK candidates."""
    rows = basis_rows[:j]
    prefix = rows[:, list(nodes[: j - 1])].T
    for start in range(0, len(columns), CANDIDATE_STACK):
        block = rows[:, columns[start:start + CANDIDATE_STACK]]
        stack = np.empty((block.shape[1], j, j), dtype=np.complex128)
        stack[:, : j - 1] = prefix
        stack[:, j - 1] = block.T
        yield stack


def _eliminate(x: np.ndarray, t: int, residual: np.ndarray) -> None:
    """The elimination step, in place: x <- x - (x[:, t] / r(t)) r for the
    rows of ``x``, with r = ``residual`` the residual of the step that
    picked grid index t."""
    x -= np.outer(x[:, t] / residual[t], residual)


def _survivors(basis_rows: np.ndarray, j: int, nodes: list[int],
               criterion: SelectionCriterion, best: float) -> np.ndarray:
    """Grid indices t whose V_j(t), j >= 2, may score within TIE_REL_TOL of
    ``best``, the computed objective of one candidate; every other V_j(t)
    provably scores worse.

    V_j(t) is the fixed block A of the first j-1 nodes with the row x_t
    appended, so one SVD of A gives every candidate's sigma_min^2 as the root
    of a secular function f_t (``numerics.secular``). A candidate that could
    win has sigma_min^2 >= mu_t: for lambda mu_t = (1 - PRUNE_MARGIN) / best^2,
    for kappa mu_t = max(s_1^2, ||x_t||^2) / (best (1 + PRUNE_MARGIN))^2, since
    sigma_max^2 is at least both. mu_t is lowered by the largest shift
    roundoff can give a computed sigma_min^2, 32 j eps (s_1^2 + max ||x_t||^2),
    covering the SVDs of A and of the candidate and the product x_t W.
    Interlacing puts sigma_min^2 at or below s_{j-1}^2, so t is pruned when
    mu_t lies above s_{j-1}^2, or inside (0, s_{j-1}^2) with f_t(mu_t) above
    its rounding bound.
    """
    rows = basis_rows[:j]
    _, s, vh = nm.svd(rows[:, list(nodes[: j - 1])].T)
    d = np.append(s * s, 0.0)
    w2 = np.abs(rows.T @ vh.conj().T) ** 2
    x2 = np.sum(np.abs(rows) ** 2, axis=0)
    if criterion is SelectionCriterion.MIN_LAMBDA:
        mu = np.full_like(x2, (1.0 - PRUNE_MARGIN) / best ** 2)
    else:
        mu = np.maximum(d[0], x2) / (best * (1.0 + PRUNE_MARGIN)) ** 2
    mu -= 32 * j * np.finfo(np.float64).eps * (d[0] + x2.max())
    f, bound = nm.secular(d, w2, mu)
    s_min_sq = d[-2]
    pruned = (mu > s_min_sq) | ((mu > 0) & (mu < s_min_sq) & (f > bound))
    return np.flatnonzero(~pruned)


def _scan(basis_rows: np.ndarray, j: int, nodes: list[int],
          criterion: SelectionCriterion, incumbent: int) -> int:
    """Kappa/lambda pick: the lowest grid index whose V_j(t) ties the best
    objective, chosen nodes excluded. From step 2 on, the candidate
    ``incumbent`` is scored first and only the survivors of ``_survivors``
    against it are scored exactly, so the pick is the one a scan of every
    candidate makes; step 1 scores every 1x1 candidate."""
    objective = (nm.condition_number_2 if criterion is SelectionCriterion.MIN_KAPPA
                 else nm.inverse_two_norm)
    columns = np.arange(basis_rows.shape[1])
    if j > 1:
        best = objective(basis_rows[:j][:, nodes + [incumbent]].T)
        columns = _survivors(basis_rows, j, nodes, criterion, best)
    values = np.full(basis_rows.shape[1], math.inf)
    values[columns] = np.concatenate([objective(stack) for stack in
                                      _candidates(basis_rows, j, nodes, columns)])
    values[nodes] = math.inf
    if math.isinf(values.min()):
        raise SingularVMatrix(f"every candidate matrix is singular at order {j}")
    return _argmin_tied(values)


def _select_nodes(basis_rows: np.ndarray, criterion: SelectionCriterion, n: int,
                  first_node_variant: bool) -> tuple[list[int], np.ndarray]:
    """The per-step kernel: nodes T_1..T_n and the residuals r_1..r_n as the
    rows of an (n, L) array. Step j eliminates its pick from the rows below
    j, which leaves row j + 1 as r_{j+1}. The argmax of |r_j| is the classic
    pick, and the incumbent the kappa/lambda scan prunes against."""
    residuals = np.array(basis_rows[:n], dtype=np.complex128)
    nodes: list[int] = []
    for j in range(1, n + 1):
        residual = residuals[j - 1]
        pick = _argmax_tied(np.abs(residual))
        if criterion is not SelectionCriterion.CLASSIC and (j > 1 or first_node_variant):
            pick = _scan(basis_rows, j, nodes, criterion, pick)
        if pick in nodes or residual[pick] == 0:
            raise SingularVMatrix(
                f"residual of basis row {j} vanishes at grid index {pick}; "
                f"basis rows are not independent on the grid"
            )
        nodes.append(pick)
        _eliminate(residuals[j:], pick, residual)
    return nodes, residuals


def _step_record(basis_rows: np.ndarray, nodes: list[int], j: int,
                 residual_at_node: float) -> StepRecord:
    vj = basis_rows[:j][:, nodes[:j]].T
    return StepRecord(det_v=nm.determinant(vj), kappa=nm.condition_number_2(vj),
                      lebesgue=nm.inverse_two_norm(vj),
                      residual_at_node=residual_at_node)


def _check_order(rb: ReducedBasis, n: int) -> None:
    # The basis rows are orthonormal, so rb.n is at most the grid size.
    if not 1 <= n <= rb.n:
        raise ValueError(f"order {n} outside 1..{rb.n}")


def build_interpolant(rb: ReducedBasis, criterion: SelectionCriterion, n: int,
                      first_node_variant: bool = False) -> EmpiricalInterpolant:
    """Select n interpolation nodes for the first n basis rows.

    Parameters
    ----------
    rb : ReducedBasis
        Source basis; only its first n rows are used.
    criterion : SelectionCriterion
        Node selection rule (classic residual maximization, condition-number
        minimization, or Lebesgue-constant minimization).
    n : int
        Interpolant order, 1 <= n <= rb.n.
    first_node_variant : bool
        When true, apply the criterion's own objective to the first node too
        instead of the shared max |e_1| rule. Off by default.

    The cardinal functions come from the residuals: step j eliminates T_j
    from B_1..B_{j-1} and appends B_j = r_j / r_j(T_j), so no linear system
    is solved.

    Raises
    ------
    SingularVMatrix
        If a node-value matrix becomes singular to working precision.
    """
    _check_order(rb, n)
    nodes, residuals = _select_nodes(rb.basis[:n], criterion, n, first_node_variant)
    per_step = tuple(_step_record(rb.basis, nodes, j, float(abs(residuals[j - 1, t])))
                     for j, t in enumerate(nodes, start=1))
    b = np.empty_like(residuals)
    for j, (t, residual) in enumerate(zip(nodes, residuals)):
        _eliminate(b[:j], t, residual)
        b[j] = residual / residual[t]
    return EmpiricalInterpolant(
        basis=rb, n=n, node_indices=tuple(nodes),
        v_matrix=rb.basis[:n, nodes].T.copy(), b_matrix=b,
        residuals=residuals, criterion=criterion, per_step=per_step,
    )


def interpolate(itp: EmpiricalInterpolant, node_values) -> np.ndarray:
    """Evaluate the interpolant from its values at the nodes:
    sum_i node_values[i] * B_i."""
    vals = np.asarray(node_values, dtype=np.complex128)
    if vals.shape != (itp.n,):
        raise LengthMismatch(f"expected {itp.n} node values, got shape {vals.shape}")
    return vals @ itp.b_matrix


def interpolate_function(itp: EmpiricalInterpolant, h) -> np.ndarray:
    """Interpolate a gridded waveform by reading it off at the nodes."""
    hv = np.asarray(h, dtype=np.complex128)
    if hv.shape != (itp.basis.grid.n_samples,):
        raise LengthMismatch(
            f"waveform has shape {hv.shape}, grid expects "
            f"({itp.basis.grid.n_samples},)"
        )
    return interpolate(itp, hv[list(itp.node_indices)])


def _determinant_ratios(basis_rows: np.ndarray, j: int, nodes: list[int]) -> np.ndarray:
    """det V_j(t) / det V_{j-1} for every grid index t, j >= 2.

    V_j(t) = [A; x_t] with A the (j-1) x j block of the first j-1 nodes and
    x_t = (e_1(t), ..., e_j(t)). det V_j(t) is linear in x_t and vanishes on
    the row space of A, so it is c (x_t . v) for a null vector v of A; the
    row x_t = (0, ..., 0, 1) gives c v_j = det V_{j-1}. v is the last column
    of the full Householder QR of A^H: it is orthogonal to every column of
    A^H, so A v = 0. No LU and no solve is involved.
    """
    rows = basis_rows[:j]
    q, _ = scipy.linalg.qr(rows[:, nodes[: j - 1]].conj())
    v = q[:, -1]
    if v[-1] == 0:
        raise SingularVMatrix(f"prefix determinant vanished at order {j - 1}")
    return (rows.T @ v) / v[-1]


def verify_determinant_identity(rb: ReducedBasis, n: int) -> list[float]:
    """Check that every classic-rule residual is a ratio of determinants.

    Runs the classic selection for the first n basis rows, which gives the
    residual r_j(t) = e_j(t) - I_{j-1}[e_j](t) over the whole grid at each
    step by elimination. At each step j = 2..n it computes independently
    det V_j(t) / det V_{j-1}, with V_j(t) the node-value matrix of the first
    j-1 nodes and t, from one QR of the chosen nodes' block (see
    ``_determinant_ratios``), never from the elimination or a solve.
    Returns, per step, the maximum over t of |residual - ratio| normalized
    by max_t |residual| (a per-point relative error is meaningless at the
    residual's zeros).
    """
    _check_order(rb, n)
    rows = rb.basis
    nodes, residuals = _select_nodes(rows[:n], SelectionCriterion.CLASSIC, n, False)
    discrepancies: list[float] = []
    for j in range(2, n + 1):
        residual = residuals[j - 1]
        ratios = _determinant_ratios(rows, j, nodes)
        scale = float(np.abs(residual).max())
        discrepancies.append(float(np.abs(residual - ratios).max() / scale))
    return discrepancies


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _complex_str(z: complex) -> str:
    return f"{fmt_float(z.real)}:{fmt_float(z.imag)}"


def _matrix_csv(m: np.ndarray) -> str:
    return "\n".join(",".join(_complex_str(z) for z in row) for row in m)


def interpolant_to_dict(itp: EmpiricalInterpolant, include_matrices: bool = False) -> dict:
    """JSON-ready summary: nodes, criterion, per-step diagnostics, and
    optionally the V and B matrices as CSV blocks of re:im pairs."""
    doc = {
        "criterion": itp.criterion.value,
        "n": itp.n,
        "node_indices": list(itp.node_indices),
        "grid": {
            "t_start": itp.basis.grid.t_start,
            "t_end": itp.basis.grid.t_end,
            "n_samples": itp.basis.grid.n_samples,
        },
        "per_step": [
            {
                "n": j + 1,
                "det_v": _complex_str(rec.det_v),
                "kappa": rec.kappa,
                "lambda": rec.lebesgue,
                "residual_at_node": rec.residual_at_node,
            }
            for j, rec in enumerate(itp.per_step)
        ],
    }
    if include_matrices:
        doc["v_matrix_csv"] = _matrix_csv(itp.v_matrix)
        doc["b_matrix_csv"] = _matrix_csv(itp.b_matrix)
    return doc


def save_interpolant_json(itp: EmpiricalInterpolant, path,
                          include_matrices: bool = False) -> None:
    doc = interpolant_to_dict(itp, include_matrices=include_matrices)
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")
