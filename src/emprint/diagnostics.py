"""Comparison runs across node-selection criteria and norm-identity checks.

For each criterion and every order n up to the basis size, a comparison run
records the condition number and Lebesgue constant of the node-value matrix,
the worst squared interpolation error over the training set, the worst
squared projection error (criterion-independent, the lower bound), and the
node list. Each order's errors cost one pass over the training set: the
interpolation residuals of the training rows are carried from order to order
by the elimination step of ``eim``, and the projection residuals by removing
one basis component, so no interpolant is truncated and no system is
solved. Reports serialize to JSON plus four plot-ready CSV curves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numerics as nm
from .catalog import LengthMismatch, TimeGrid, TrainingSet
from .eim import (EmpiricalInterpolant, SelectionCriterion, _eliminate,
                  build_interpolant)
from .rbm import ReducedBasis
from ._fileio import atomic_write_text, fmt_float

# The explicit interpolation operator is only materialized for grids up to
# this size; beyond it the operator-norm check is skipped with a note.
OPERATOR_CHECK_MAX_GRID = 5000

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
    basis_convention: str = BASIS_CONVENTION
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


@dataclass(frozen=True)
class IdentityChecks:
    """Residuals of the two norm identities for one interpolant.

    ``norm_product_residual``: |kappa - ||V|| * ||V^{-1}||| / kappa.
    ``operator_norm_residual``: relative gap between the largest singular
    value of the explicitly materialized interpolation operator and
    ||V^{-1}||; None when the grid is too large to materialize.
    """

    norm_product_residual: float
    operator_norm_residual: float | None
    note: str = ""


def _max_sq_weighted_rownorm(residual: np.ndarray, dt: float) -> float:
    return float(np.einsum("ij,ij->i", residual.conj(), residual).real.max() * dt)


def run_comparison(rb: ReducedBasis, ts: TrainingSet,
                   criteria=(SelectionCriterion.CLASSIC,),
                   dataset_id: str = "training",
                   first_node_variant: bool = False,
                   ) -> dict[SelectionCriterion, DiagnosticsReport]:
    """In-sample comparison of node-selection criteria.

    Builds, per criterion, the full-order interpolant once (prefixes give
    every smaller order for free) and measures the worst interpolation and
    projection errors over the training rows at every order, each from a
    running residual of the training rows that one pass updates per order.
    """
    if rb.grid != ts.grid:
        raise LengthMismatch("basis and training set live on different grids")
    samples = ts.samples
    dt = ts.grid.dt
    n_total = rb.n
    # Scale of the roundoff floor: one norm pass over the training rows.
    max_train_norm_sq = _max_sq_weighted_rownorm(samples, dt)

    # Projection errors are criterion-independent: one coefficient pass.
    coeffs = samples @ rb.basis.conj().T
    residual = samples.copy()
    proj_err_sq = []
    for n in range(1, n_total + 1):
        residual -= np.outer(coeffs[:, n - 1], rb.basis[n - 1])
        proj_err_sq.append(_max_sq_weighted_rownorm(residual, dt))

    reports: dict[SelectionCriterion, DiagnosticsReport] = {}
    for criterion in criteria:
        full = build_interpolant(rb, criterion, n_total,
                                 first_node_variant=first_node_variant)
        residual = samples.copy()
        records = []
        for n, (t, step) in enumerate(zip(full.node_indices, full.per_step), start=1):
            _eliminate(residual, t, full.residuals[n - 1])
            records.append(OrderRecord(
                n=n,
                kappa=step.kappa,
                lebesgue=step.lebesgue,
                max_interp_err_sq=_max_sq_weighted_rownorm(residual, dt),
                max_proj_err_sq=proj_err_sq[n - 1],
                nodes=full.node_indices[:n],
            ))
        reports[criterion] = DiagnosticsReport(
            criterion=criterion, per_n=tuple(records),
            dataset_id=dataset_id, grid=ts.grid,
            max_train_norm_sq=max_train_norm_sq,
        )
    return reports


def error_ratio_curve(report_a: DiagnosticsReport,
                      report_b: DiagnosticsReport) -> list[float]:
    """Per-order ratio of worst interpolation errors, a over b.

    Where both errors sit at or below the roundoff floor the ratio is
    reported as 1; a zero denominator with a nonzero numerator gives inf.
    The floor is relative to the larger of the two reports' largest squared
    training norms (``numerics.error_floor_sq``).
    """
    if len(report_a.per_n) != len(report_b.per_n):
        raise LengthMismatch(
            f"reports cover {len(report_a.per_n)} and {len(report_b.per_n)} orders"
        )
    floor = nm.error_floor_sq(max(report_a.max_train_norm_sq,
                                  report_b.max_train_norm_sq))
    ratios = []
    for ra, rb_ in zip(report_a.per_n, report_b.per_n):
        a, b = ra.max_interp_err_sq, rb_.max_interp_err_sq
        if a <= floor and b <= floor:
            ratios.append(1.0)
        elif b == 0.0:
            ratios.append(math.inf)
        else:
            ratios.append(a / b)
    return ratios


def identity_checks(itp: EmpiricalInterpolant) -> IdentityChecks:
    """Numerically verify the two norm identities on one interpolant.

    The condition number must factor as ||V|| times ||V^{-1}||, and the
    2-norm of the interpolation operator (materialized explicitly as the
    map from node values to the interpolated waveform, whose columns are
    all the operator carries on a grid) must equal ||V^{-1}|| because the
    stored basis rows are orthonormal.
    """
    kappa = nm.condition_number_2(itp.v_matrix)
    norm_v = nm.two_norm(itp.v_matrix)
    lebesgue = nm.inverse_two_norm(itp.v_matrix)
    norm_product_residual = abs(kappa - norm_v * lebesgue) / kappa

    n_grid = itp.basis.grid.n_samples
    if n_grid <= OPERATOR_CHECK_MAX_GRID:
        operator = itp.b_matrix.T.copy()  # maps node values to waveforms
        operator_norm = nm.two_norm(operator)
        operator_norm_residual = abs(operator_norm - lebesgue) / lebesgue
        note = ""
    else:
        operator_norm_residual = None
        note = (f"operator-norm check skipped: grid size {n_grid} exceeds "
                f"{OPERATOR_CHECK_MAX_GRID}")
    return IdentityChecks(
        norm_product_residual=float(norm_product_residual),
        operator_norm_residual=operator_norm_residual,
        note=note,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def report_to_dict(report: DiagnosticsReport) -> dict:
    return {
        "dataset_id": report.dataset_id,
        "criterion": report.criterion.value,
        "basis_convention": report.basis_convention,
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
    }


def write_report_json(report: DiagnosticsReport, path) -> None:
    atomic_write_text(path, json.dumps(report_to_dict(report), indent=2) + "\n")


def write_curve_csvs(reports: dict[SelectionCriterion, DiagnosticsReport],
                     out_dir) -> list[str]:
    """Write kappa.csv, lambda.csv, errors.csv and nodes.csv under out_dir.

    kappa/lambda/errors carry one column per criterion keyed by the
    criterion tag; errors.csv additionally carries the shared projection
    error column, which lower-bounds every interpolation column row by row.
    Returns the written file names.
    """
    out = Path(out_dir)
    ordered = [reports[c] for c in sorted(reports, key=lambda c: c.value)]
    if not ordered:
        raise ValueError("no reports to write")
    n_orders = len(ordered[0].per_n)
    for rep in ordered[1:]:
        if len(rep.per_n) != n_orders:
            raise LengthMismatch("reports cover different numbers of orders")
    tags = [rep.criterion.value for rep in ordered]

    kappa_lines = ["n," + ",".join(f"kappa_{t}" for t in tags)]
    lambda_lines = ["n," + ",".join(f"lambda_{t}" for t in tags)]
    err_lines = ["n,proj_err_sq," + ",".join(f"interp_err_sq_{t}" for t in tags)]
    for i in range(n_orders):
        n = ordered[0].per_n[i].n
        kappa_lines.append(
            f"{n}," + ",".join(fmt_float(rep.per_n[i].kappa) for rep in ordered))
        lambda_lines.append(
            f"{n}," + ",".join(fmt_float(rep.per_n[i].lebesgue) for rep in ordered))
        err_lines.append(
            f"{n},{fmt_float(ordered[0].per_n[i].max_proj_err_sq)},"
            + ",".join(fmt_float(rep.per_n[i].max_interp_err_sq) for rep in ordered))

    node_lines = ["criterion,n,nodes"]
    for rep in ordered:
        for rec in rep.per_n:
            node_lines.append(
                f"{rep.criterion.value},{rec.n}," + " ".join(str(i) for i in rec.nodes))

    written = []
    for name, lines in [("kappa.csv", kappa_lines), ("lambda.csv", lambda_lines),
                        ("errors.csv", err_lines), ("nodes.csv", node_lines)]:
        atomic_write_text(out / name, "\n".join(lines) + "\n")
        written.append(name)
    return written
