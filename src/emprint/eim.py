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

The first node is the location of max |e_1| under every rule: V_1(t) is
1x1, so its condition number is 1 at every t and ||V_1^{-1}|| = 1/|e_1(t)|
is least there, and neither rule has anything else to optimize at step 1.

One elimination step is the only interpolation arithmetic. With r the
residual of the step that picked node t, it updates a stack of grid
functions X as X <- X - (X[:, t] / r(t)) r: Gaussian elimination with the
picks as pivots (Maday et al. 2009, "magic points"; Chaturantabut and
Sorensen 2010, DEIM). The update is done in place, by one BLAS rank-1
update (``zgeru``) of X's transpose, so no temporary of X's size is made
at any step. Applied to the basis rows below each pick, it leaves
row j as r_j = e_j - I_{j-1}[e_j] (r_1 = e_1), so node selection needs no
linear solve. The classic rule picks the argmax of |r_j|, and every step
record reports |r_j(T_j)| = |det V_j / det V_{j-1}| from it. Applied to the
cardinal functions it turns those of order j-1 into those of order j, with
B_j = r_j / r_j(T_j). Applied to a training sample's node values and basis
coefficients, with the residuals restricted the same way, it leaves after n
steps those of the sample's interpolation error at order n (the comparison
in ``diagnostics``).

The kappa/lambda rules take the classic pick as the incumbent. Every
candidate V_j(t) is the same block A of chosen nodes with one row x_t
appended, so one SVD of A, A = U S W^H, bounds every candidate (see
``_pruner``): sigma_min(V_j(t))^2 <= |x_t w_j|^2, with w_j the null vector of
A, which is the classic residual |r_j(t)|^2 scaled by at most 1, and
sigma_max(V_j(t))^2 >= max(s_1^2 + |x_t w_1|^2, ||x_t||^2). One product of
the grid with w_1 and w_j prunes most candidates that provably score worse
than the incumbent; only the rest evaluate the secular equation of the
row-append SVD update, whose root is their sigma_min^2. The survivor whose
secular value says it is likeliest to score well is scored first, the rest
are pruned again against the better score, and what is left is scored in
stacks of at most CANDIDATE_STACK, under the lowest-index tie rule. Each
bound allows for the roundoff of the SVDs and the products, so the picks
and every output are those of a scan that scores every candidate. The
winner's kappa and lambda from that scoring are its step record's, so a
scanned step computes no SVD of its V_j again. The identity verifier gets every
det V_j(t) / det V_{j-1} from one null vector of the chosen nodes' block per
step, taken from a Householder QR, independently of the elimination.

A full-order interpolant selected on a basis swept from a training CSV can
be kept in a binary copy, so that a later comparison on the same data reads
its picks instead of selecting again. The copy is one ASCII line
``emprint-interpolant v1 csv=<hex> code=<hex> tol=<float>
n_max=<int|none> rule=<rule> n=<n> l=<L>``, whose fields up to ``n_max``
key the basis copy too (see ``rbm``), then per step the node index, det_v
(re, im), kappa, lambda and |r_j(T_j)| as little-endian doubles.
``load_interpolant_copy`` rebuilds the residuals and cardinal functions
from the nodes with the elimination of ``_select_nodes`` itself, so the
interpolant holds the same bits whether read or selected.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import zgeru

from . import numerics as nm
from .catalog import InvalidRange, LengthMismatch
from .rbm import ReducedBasis, _copy_key
from ._fileio import keyed_copy, read_keyed_copy

# Grid points per stack of candidate matrices V_j(t). One stack over a whole
# 2001-point grid raised a run's peak memory by 12%; 256 keeps it flat.
CANDIDATE_STACK = 256

# Relative slack on the objective to beat when pruning kappa/lambda
# candidates, far above numerics.TIE_REL_TOL: a candidate is scored exactly
# unless it provably scores worse than the incumbent by more than this.
PRUNE_MARGIN = 1e-8

# Start of a full-order interpolant's binary copy header; its version must
# change whenever the layout does.
INTERPOLANT_COPY_MAGIC = "emprint-interpolant v1"


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

    ``b_matrix`` holds the cardinal functions as rows, B_i = sum_j
    (V^{-1})_{ji} e_j, which satisfy B_i(T_j) = delta_ij. ``residuals``
    holds r_1..r_n as rows, r_j = e_j - I_{j-1}[e_j] over the grid.
    ``per_step`` has one StepRecord per prefix order. The order ``n`` and
    ``v_matrix``, V[i, j] = e_j(T_i), are derived from nodes and basis.
    """

    basis: ReducedBasis
    node_indices: tuple[int, ...]
    b_matrix: np.ndarray
    residuals: np.ndarray
    criterion: SelectionCriterion
    per_step: tuple[StepRecord, ...]

    def __post_init__(self):
        nodes = tuple(int(i) for i in self.node_indices)
        if len(set(nodes)) != len(nodes):
            raise ValueError("node indices must be distinct")
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

    @property
    def n(self) -> int:
        return len(self.node_indices)

    @property
    def v_matrix(self) -> np.ndarray:
        return self.basis.basis[:self.n, self._node_array].T

    @functools.cached_property
    def _node_array(self) -> np.ndarray:
        """``node_indices`` as an index array, built once per interpolant."""
        return np.array(self.node_indices, dtype=np.intp)


def _eliminate(x: np.ndarray, t: int, residual: np.ndarray) -> None:
    """The elimination step, in place: x <- x - (x[:, t] / r(t)) r for the
    rows of ``x``, with r = ``residual`` the residual of the step that
    picked grid index t. The update is one BLAS rank-1 update (``zgeru``)
    of x's transpose, Fortran-ordered when x is C-contiguous, so no
    temporary of x's size is made; f2py hands back a copy for any other
    layout, which is written back."""
    if not x.shape[0]:
        return  # f2py refuses an empty matrix
    updated = zgeru(-1.0, residual, x[:, t] / residual[t], a=x.T, overwrite_a=True)
    if not np.may_share_memory(updated, x):
        x[...] = updated.T


def _pruner(rows: np.ndarray, nodes: list[int], criterion: SelectionCriterion):
    """``prune(best, columns)``: the grid indices t in ``columns`` whose
    V_j(t) may score within numerics.TIE_REL_TOL of ``best``, the computed
    objective of one candidate, with f_t(mu_t) for each (see below); every
    other V_j(t) provably scores worse. ``rows`` are the first j >= 2 basis
    rows and ``nodes`` the first j-1 picks.

    V_j(t) is the fixed block A of the first j-1 nodes with the row x_t
    appended, so one full SVD of A, A = U S W^H, serves every candidate. A
    candidate that could win has sigma_min^2 >= mu_t: for lambda
    mu_t = (1 - PRUNE_MARGIN) / best^2, for kappa
    mu_t = max(s_1^2 + |x_t w_1|^2, ||x_t||^2) / (best (1 + PRUNE_MARGIN))^2,
    since sigma_max^2 is at least the Rayleigh quotient of V_j(t) on the top
    right singular vector w_1 of A and at least the squared norm of its last
    row. Two tests then bound sigma_min^2 from above, the cheap one first:

    1. The last right singular vector w_j spans A's null space, so
       sigma_min^2 <= ||V_j(t) w_j||^2 = |x_t w_j|^2, the classic residual
       |r_j(t)|^2 scaled by |w_j[j-1]|^2 <= 1. One product of the grid with
       w_1 and w_j gives both this bound and kappa's Rayleigh quotient, and
       t is pruned when |x_t w_j|^2 < mu_t. Interlacing also puts
       sigma_min^2 at or below s_{j-1}^2, so t is pruned when mu_t lies
       above it.
    2. For the rest only, sigma_min^2 is the root of the secular function
       f_t of ``numerics.secular`` on (0, s_{j-1}^2), which needs all of
       |x_t W|^2; t is pruned when f_t(mu_t) lies above its rounding bound.

    mu_t is lowered by the largest shift roundoff can give a computed
    sigma_min^2 or either bound, 32 j eps (s_1^2 + max ||x_t||^2): the SVDs
    of A and of the candidate are backward stable, so the computed W is an
    exact one of a block within a few eps s_1 of A, and each product x_t w
    sums j terms.
    """
    _, s, vh = nm._svd(rows[:, nodes].T, compute_uv=True)
    w = vh.conj().T
    d = np.append(s * s, 0.0)
    # ||x_t||^2 in one pass over the real view (of a copy only if the rows'
    # samples are not adjacent): re^2 and im^2 of each sample summed over
    # the rows, then the two parts of each sample added.
    parts = np.ascontiguousarray(rows).view(np.float64)
    x2 = np.einsum("ij,ij->j", parts, parts)
    x2 = x2[0::2] + x2[1::2]
    edges = np.abs(rows.T @ w[:, [0, -1]]) ** 2
    shift = 32 * len(rows) * np.finfo(np.float64).eps * (d[0] + x2.max())

    def prune(best: float, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if criterion is SelectionCriterion.MIN_LAMBDA:
            mu = np.full(columns.size, (1.0 - PRUNE_MARGIN) / best ** 2)
        else:
            mu = (np.maximum(d[0] + edges[columns, 0], x2[columns])
                  / (best * (1.0 + PRUNE_MARGIN)) ** 2)
        mu -= shift
        kept = (edges[columns, 1] >= mu) & (mu <= d[-2])
        columns, mu = columns[kept], mu[kept]
        f, bound = nm.secular(d, np.abs(rows[:, columns].T @ w) ** 2, mu)
        kept = (mu <= 0) | (mu >= d[-2]) | ~(f > bound)
        return columns[kept], f[kept]

    return prune


def _score(scores: np.ndarray, rows: np.ndarray, nodes: list[int], columns) -> None:
    """Write the (kappa, lambda) of V_j(t), the node-value matrix of
    ``nodes`` with t appended, into ``scores[:, t]`` for each t in
    ``columns``, from (m, j, j) stacks of m <= CANDIDATE_STACK candidates."""
    prefix = rows[:, nodes].T
    for start in range(0, len(columns), CANDIDATE_STACK):
        block = columns[start:start + CANDIDATE_STACK]
        stack = np.empty((len(block), len(rows), len(rows)), dtype=np.complex128)
        stack[:, :-1] = prefix
        stack[:, -1] = rows[:, block].T
        scores[:, block] = nm.condition_and_inverse_norm(stack)


def _scan(basis_rows: np.ndarray, j: int, nodes: list[int],
          criterion: SelectionCriterion, incumbent: int) -> tuple[int, tuple[float, float]]:
    """Kappa/lambda pick: the lowest grid index whose V_j(t) ties the best
    objective, chosen nodes excluded, at step j >= 2, and the (kappa,
    lambda) of its V_j; the pick is the one a scan of every candidate makes.

    The candidate ``incumbent`` is scored first, alone, and every other
    candidate is pruned against it (``_pruner``). The survivor with the
    least f_t(mu_t), the likeliest to score well, is scored next; the rest
    are pruned again against the better of the two scores, and what is left
    is scored in stacks. No candidate is scored twice."""
    rows = basis_rows[:j]
    # Element 0 of condition_and_inverse_norm is kappa, element 1 lambda.
    element = 0 if criterion is SelectionCriterion.MIN_KAPPA else 1
    scores = np.full((2, rows.shape[1]), math.inf)
    scores[:, incumbent] = nm.condition_and_inverse_norm(rows[:, nodes + [incumbent]].T)
    fresh = np.ones(rows.shape[1], dtype=bool)
    fresh[nodes + [incumbent]] = False
    prune = _pruner(rows, nodes, criterion)
    columns, f = prune(scores[element, incumbent], np.flatnonzero(fresh))
    if columns.size:
        first = int(np.argmin(f))
        _score(scores, rows, nodes, columns[first:first + 1])
        if columns.size > 1:
            rest, _ = prune(scores[element, [incumbent, columns[first]]].min(),
                            np.delete(columns, first))
            _score(scores, rows, nodes, rest)
    values = scores[element]
    values[nodes] = math.inf
    if math.isinf(values.min()):
        raise SingularVMatrix(f"every candidate matrix is singular at order {j}")
    pick = nm.argmin_tied(values)
    return pick, (float(scores[0, pick]), float(scores[1, pick]))


def _select_nodes(basis_rows: np.ndarray, criterion: SelectionCriterion,
                  n: int, picks=None, scores=None) -> tuple[list[int], np.ndarray]:
    """The per-step kernel: nodes T_1..T_n and the residuals r_1..r_n as the
    rows of an (n, L) array. Step j eliminates its pick from the rows below
    j, which leaves row j + 1 as r_{j+1}. The argmax of |r_j| is the classic
    pick, and the incumbent the kappa/lambda scan prunes against. Given
    ``picks``, the nodes of an earlier selection, step j takes picks[j-1]
    instead and runs the same checks and elimination. Given a dict
    ``scores``, each step j picked by a scan stores there the (kappa, lambda)
    of V_j that the scan computed."""
    residuals = np.array(basis_rows[:n], dtype=np.complex128)
    nodes: list[int] = []
    for j in range(1, n + 1):
        residual = residuals[j - 1]
        if picks is not None:
            pick = picks[j - 1]
        else:
            pick = nm.argmax_tied(np.abs(residual))
            if criterion is not SelectionCriterion.CLASSIC and j > 1:
                pick, scored = _scan(basis_rows, j, nodes, criterion, pick)
                if scores is not None:
                    scores[j] = scored
        if pick in nodes or residual[pick] == 0:
            raise SingularVMatrix(
                f"residual of basis row {j} vanishes at grid index {pick}; "
                f"basis rows are not independent on the grid"
            )
        nodes.append(pick)
        _eliminate(residuals[j:], pick, residual)
    return nodes, residuals


def _step_record(basis_rows: np.ndarray, nodes: list[int], j: int,
                 residual_at_node: float, scores=None) -> StepRecord:
    """The record of V_j; ``scores``, its (kappa, lambda) when a scan
    computed them, spares their SVD."""
    vj = basis_rows[:j][:, nodes[:j]].T
    kappa, lebesgue = scores or nm.condition_and_inverse_norm(vj)
    return StepRecord(det_v=nm.determinant(vj), kappa=kappa, lebesgue=lebesgue,
                      residual_at_node=residual_at_node)


def _check_order(rb: ReducedBasis, n: int) -> None:
    # The basis rows are orthonormal, so rb.n is at most the grid size.
    if not 1 <= n <= rb.n:
        raise InvalidRange(f"order {n} outside 1..{rb.n} (the basis size)")


def build_interpolant(rb: ReducedBasis, criterion: SelectionCriterion,
                      n: int) -> EmpiricalInterpolant:
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

    The cardinal functions come from the residuals: step j eliminates T_j
    from B_1..B_{j-1} and appends B_j = r_j / r_j(T_j), so no linear system
    is solved.

    Raises
    ------
    InvalidRange
        If n lies outside 1..rb.n.
    SingularVMatrix
        If a node-value matrix becomes singular to working precision.
    """
    _check_order(rb, n)
    scores = {}
    nodes, residuals = _select_nodes(rb.basis[:n], criterion, n, scores=scores)
    per_step = tuple(_step_record(rb.basis, nodes, j, float(abs(residuals[j - 1, t])),
                                  scores.get(j))
                     for j, t in enumerate(nodes, start=1))
    return _with_cardinals(rb, criterion, nodes, residuals, per_step)


def _with_cardinals(rb: ReducedBasis, criterion: SelectionCriterion, nodes: list[int],
                    residuals: np.ndarray, per_step) -> EmpiricalInterpolant:
    """The interpolant of these nodes, residuals and step records, its
    cardinal functions built from the residuals."""
    b = np.empty_like(residuals)
    for j, (t, residual) in enumerate(zip(nodes, residuals)):
        _eliminate(b[:j], t, residual)
        b[j] = residual / residual[t]
    return EmpiricalInterpolant(
        basis=rb, node_indices=tuple(nodes), b_matrix=b,
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
    """Interpolate a gridded waveform by reading it off at the nodes; the
    same sum as ``interpolate`` of those values."""
    hv = np.asarray(h, dtype=np.complex128)
    if hv.shape != (itp.basis.grid.n_samples,):
        raise LengthMismatch(
            f"waveform has shape {hv.shape}, grid expects "
            f"({itp.basis.grid.n_samples},)"
        )
    return hv[itp._node_array] @ itp.b_matrix


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
    residual's zeros). Raises InvalidRange if n lies outside 1..rb.n.
    """
    _check_order(rb, n)
    rows = rb.basis
    nodes, residuals = _select_nodes(rows[:n], SelectionCriterion.CLASSIC, n)
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

def _copy_header(csv_digest: str, tol: float, n_max: int | None,
                 criterion: SelectionCriterion, n: int, l: int) -> str:
    return (f"{INTERPOLANT_COPY_MAGIC} {_copy_key(csv_digest, tol, n_max)} "
            f"rule={criterion.value} n={n} l={l}")


def interpolant_copy(itp: EmpiricalInterpolant, csv_digest: str,
                     n_max: int | None = None) -> list:
    """The binary copy of ``itp``, selected on the basis swept from the
    training CSV of digest ``csv_digest`` with cap ``n_max``: per step the
    node, det_v (re, im), kappa, lambda and |r_j(T_j)|, as
    ``_fileio.keyed_copy`` gives it."""
    return keyed_copy(
        _copy_header(csv_digest, itp.basis.tol, n_max, itp.criterion, itp.n,
                     itp.basis.grid.n_samples),
        [(t, r.det_v.real, r.det_v.imag, r.kappa, r.lebesgue, r.residual_at_node)
         for t, r in zip(itp.node_indices, itp.per_step)])


def load_interpolant_copy(path, rb: ReducedBasis, criterion: SelectionCriterion,
                          csv_digest: str | None,
                          n_max: int | None = None) -> EmpiricalInterpolant | None:
    """``build_interpolant(rb, criterion, rb.n)``, read from the copy at
    ``path``, or None when there is no copy that may be trusted.

    A copy is trusted only when its header is the one this run would write
    (the digest ``csv_digest``, this code, ``rb.tol``, ``n_max``, the rule,
    ``rb.n`` and L), its payload holds exactly 6 rb.n doubles and its nodes
    are distinct grid indices whose residuals do not vanish and whose
    cardinal functions pass the cardinal check. The residuals and cardinal
    functions are rebuilt from the nodes by ``_select_nodes``; the step
    records are the copy's. With no digest the file is not opened.
    """
    if csv_digest is None:
        return None
    n, l = rb.n, rb.grid.n_samples
    values = read_keyed_copy(
        path, lambda m: _copy_header(csv_digest, rb.tol, n_max, criterion, m, l), 6)
    if values is None or values.size != 6 * n:
        return None
    steps = values.reshape(n, 6).tolist()
    if not all(0 <= t < l and t % 1 == 0 for t, *_ in steps):
        return None
    try:
        nodes, residuals = _select_nodes(rb.basis[:n], criterion, n,
                                         picks=[int(t) for t, *_ in steps])
        return _with_cardinals(rb, criterion, nodes, residuals, tuple(
            StepRecord(complex(re, im), kappa, lam, r) for _, re, im, kappa, lam, r in steps))
    except SingularVMatrix:
        return None
