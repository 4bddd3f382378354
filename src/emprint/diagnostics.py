"""Comparison runs across node-selection criteria, and their serialization.

For each criterion and every order n up to the basis size, a comparison run
records the condition number and Lebesgue constant of the node-value matrix,
the worst squared interpolation error over the training set, the worst
squared projection error (criterion-independent, the lower bound), and the
node list.

The errors are measured in coefficient space. With c = h E^H the basis
coefficients of a training row h and r_N = h - c E its full-order residual,
which is orthogonal to every basis row, Pythagoras splits both errors:

    ||h - P_n h||^2 = ||r_N||^2 + sum_{i>n} |c_i|^2
    ||h - I_n h||^2 = ||r_N||^2 + ||c - a_n||^2

where a_n holds the coefficients of I_n h, which lies in the span of the
first n rows (Maday et al. 2009; Chaturantabut and Sorensen 2010). Only the
products c = h E^H and c E read the K x L training rows, once per call. The
projection errors are a reverse cumulative sum of nonnegative terms, so
nothing cancels. The interpolation errors come from the elimination step of
``eim`` applied to each row's node values and coefficients, [h(T) | c],
with the residual rows restricted the same way, [r_j(T) | r_j E^H]: after n
steps the second block is c - a_n. Each order costs O(K N) per criterion,
updates that K x 2N block in place and solves no system. The full-order
interpolants come from the caller, which selects them or reads them from
their copies (see ``eim``), so a comparison selects no node itself. Reports
serialize to JSON plus four plot-ready CSV curves. The interpolant's JSON
document (``interpolant_json``) is written here too, not in ``eim``, whose
source keys every binary copy (``rbm._code_digest``): a change to how a
document is laid out then leaves every copy valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .catalog import LengthMismatch, TimeGrid, TrainingSet
from .eim import EmpiricalInterpolant, SelectionCriterion, _eliminate
from .rbm import ReducedBasis
from ._fileio import _re_im, json_document, table

# Written into every report: the condition numbers and Lebesgue constants
# refer to the stored Euclidean-orthonormal basis rows.
BASIS_CONVENTION = "euclidean-orthonormal-rows"


@dataclass(frozen=True)
class OrderRecord:
    """Curves at one order: conditioning, Lebesgue constant, worst errors."""

    n: int
    kappa: float
    lebesgue: float
    max_interp_err_sq: float
    max_proj_err_sq: float
    nodes: tuple[int, ...]


@dataclass(frozen=True)
class DiagnosticsReport:
    """Per-order records for one criterion on one dataset.

    ``max_train_norm_sq`` is the largest squared weighted norm of the
    training rows; it scales the roundoff floor of the error checks and is
    not serialized.
    """

    criterion: SelectionCriterion
    per_n: tuple[OrderRecord, ...]
    dataset_id: str
    grid: TimeGrid
    max_train_norm_sq: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.max_train_norm_sq) and self.max_train_norm_sq >= 0):
            raise ValueError(
                f"max_train_norm_sq must be finite and >= 0, got {self.max_train_norm_sq}"
            )
        floor = nm.error_floor_sq(self.max_train_norm_sq)
        for rec in self.per_n:
            if rec.kappa < 1.0 - 1e-12:
                raise ValueError(f"condition number below 1 at n={rec.n}")
            if rec.max_proj_err_sq > rec.max_interp_err_sq * (1 + 1e-10) + floor:
                raise ValueError(
                    f"projection error exceeds interpolation error at n={rec.n}"
                )


def run_comparison(rb: ReducedBasis, ts: TrainingSet, interpolants,
                   dataset_id: str = "training",
                   ) -> dict[SelectionCriterion, DiagnosticsReport]:
    """In-sample comparison of node-selection criteria.

    ``interpolants`` holds one full-order interpolant of ``rb`` per
    criterion (prefixes give every smaller order for free); the caller
    builds them or reads them from their copies. Measures the worst
    interpolation and projection errors over the training rows at every
    order in coefficient space (see the module docstring): two products with
    the basis read the training rows, and each order then costs one
    elimination step on the rows' node values and basis coefficients.
    """
    if rb.grid != ts.grid:
        raise LengthMismatch("basis and training set live on different grids")
    samples = ts.samples
    dt = ts.grid.dt
    n_total = rb.n
    basis_h = rb.basis.conj().T
    coeffs = samples @ basis_h
    tail = coeffs @ rb.basis
    np.subtract(samples, tail, out=tail)
    # Squared row norms of complex arrays, summed over their real and
    # imaginary parts read as one float array.
    tail_parts = tail.view(np.float64)
    tail_sq = np.einsum("ij,ij->i", tail_parts, tail_parts)
    del tail, tail_parts  # the only K x L temporary; freed before the builds

    # Column n holds ||h - P_n h||^2 for n = 0..N; column 0 is ||h||^2, the
    # scale of the roundoff floor.
    proj_sq = np.zeros((samples.shape[0], n_total + 1))
    proj_sq[:, :n_total] = np.cumsum(np.abs(coeffs[:, ::-1]) ** 2, axis=1)[:, ::-1]
    proj_sq += tail_sq[:, None]
    worst_proj_sq = proj_sq.max(axis=0) * dt
    max_train_norm_sq = float(worst_proj_sq[0])

    reports: dict[SelectionCriterion, DiagnosticsReport] = {}
    for full in interpolants:
        if full.basis is not rb or full.n != n_total:
            raise ValueError("run_comparison needs full-order interpolants of its basis")
        nodes = list(full.node_indices)
        # Row k: [h_k(T) | c_k], eliminated into [(h_k - I_n h_k)(T) | c_k - a_n].
        x = np.hstack([samples[:, nodes], coeffs])
        diff_parts = x.view(np.float64)[:, 2 * n_total:]
        pivots = np.hstack([full.residuals[:, nodes], full.residuals @ basis_h])
        records = []
        for n, step in enumerate(full.per_step, start=1):
            _eliminate(x, n - 1, pivots[n - 1])
            diff_sq = np.einsum("ij,ij->i", diff_parts, diff_parts)
            records.append(OrderRecord(
                n=n,
                kappa=step.kappa,
                lebesgue=step.lebesgue,
                max_interp_err_sq=float((tail_sq + diff_sq).max() * dt),
                max_proj_err_sq=float(worst_proj_sq[n]),
                nodes=full.node_indices[:n],
            ))
        reports[full.criterion] = DiagnosticsReport(
            criterion=full.criterion, per_n=tuple(records),
            dataset_id=dataset_id, grid=ts.grid,
            max_train_norm_sq=max_train_norm_sq,
        )
    return reports


def error_ratio_curve(report_a: DiagnosticsReport,
                      report_b: DiagnosticsReport) -> list[float]:
    """Per-order ratio of worst interpolation errors, a over b.

    Where both errors sit at or below the roundoff floor the ratio is
    reported as 1; a zero denominator with a nonzero numerator gives inf.
    The floor at order n is ``numerics.error_floor_sq`` of the larger of the
    two reports' largest squared training norms, times
    max(1, lambda_a,n, lambda_b,n)^2: an interpolant amplifies the roundoff
    in its node values by up to its Lebesgue constant, so two errors that
    are both roundoff can differ by that factor squared.
    """
    if len(report_a.per_n) != len(report_b.per_n):
        raise LengthMismatch(
            f"reports cover {len(report_a.per_n)} and {len(report_b.per_n)} orders"
        )
    base_floor = nm.error_floor_sq(max(report_a.max_train_norm_sq,
                                       report_b.max_train_norm_sq))
    ratios = []
    for ra, rb_ in zip(report_a.per_n, report_b.per_n):
        a, b = ra.max_interp_err_sq, rb_.max_interp_err_sq
        floor = base_floor * max(1.0, ra.lebesgue, rb_.lebesgue) ** 2
        if a <= floor and b <= floor:
            ratios.append(1.0)
        elif b == 0.0:
            ratios.append(math.inf)
        else:
            ratios.append(a / b)
    return ratios


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def interpolant_json(itp: EmpiricalInterpolant, include_matrices: bool = False) -> bytes:
    """The JSON document of nodes, criterion, per-step diagnostics, and
    optionally the V and B matrices as CSV blocks of re:im pairs."""
    det_v = _re_im([[rec.det_v] for rec in itp.per_step]).split("\n")
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
                "det_v": det_v[j],
                "kappa": rec.kappa,
                "lambda": rec.lebesgue,
                "residual_at_node": rec.residual_at_node,
            }
            for j, rec in enumerate(itp.per_step)
        ],
    }
    if include_matrices:
        doc["v_matrix_csv"] = _re_im(itp.v_matrix)
        doc["b_matrix_csv"] = _re_im(itp.b_matrix)
    return json_document(doc)


def report_json(report: DiagnosticsReport) -> bytes:
    """The JSON document of ``report``."""
    return json_document({
        "dataset_id": report.dataset_id,
        "criterion": report.criterion.value,
        "basis_convention": BASIS_CONVENTION,
        "grid": {
            "t_start": report.grid.t_start,
            "t_end": report.grid.t_end,
            "n_samples": report.grid.n_samples,
            "dt": report.grid.dt,
        },
        "per_n": [
            {
                "n": rec.n,
                "kappa": rec.kappa,
                "lambda": rec.lebesgue,
                "max_interp_err_sq": rec.max_interp_err_sq,
                "max_proj_err_sq": rec.max_proj_err_sq,
                "nodes": list(rec.nodes),
            }
            for rec in report.per_n
        ],
    })


def curve_csvs(reports: dict[SelectionCriterion, DiagnosticsReport]) -> dict[str, bytes]:
    """kappa.csv, lambda.csv, errors.csv and nodes.csv: a map from each file
    name to its bytes, in that order.

    kappa/lambda/errors carry one column per criterion keyed by the
    criterion tag; errors.csv additionally carries the shared projection
    error column, which lower-bounds every interpolation column row by row.
    """
    ordered = [reports[c] for c in sorted(reports, key=lambda c: c.value)]
    if not ordered:
        raise ValueError("no reports to write")
    if any(len(rep.per_n) != len(ordered[0].per_n) for rep in ordered):
        raise LengthMismatch("reports cover different numbers of orders")
    tags = [rep.criterion.value for rep in ordered]
    orders = list(zip(*(rep.per_n for rep in ordered)))  # the records of each order
    return {
        "kappa.csv": table(["n", *(f"kappa_{t}" for t in tags)],
                           [[rs[0].n, *(r.kappa for r in rs)] for rs in orders]),
        "lambda.csv": table(["n", *(f"lambda_{t}" for t in tags)],
                            [[rs[0].n, *(r.lebesgue for r in rs)] for rs in orders]),
        "errors.csv": table(["n", "proj_err_sq", *(f"interp_err_sq_{t}" for t in tags)],
                            [[rs[0].n, rs[0].max_proj_err_sq,
                              *(r.max_interp_err_sq for r in rs)] for rs in orders]),
        "nodes.csv": table(["criterion", "n", "nodes"],
                           [[rep.criterion.value, rec.n, rec.nodes]
                            for rep in ordered for rec in rep.per_n]),
    }
