"""Golden outputs of the comparison pipeline, compared by tests/test_golden.py.

Run from the root of a source checkout:

    PYTHONPATH=src:tests python3 tests/golden/make.py

For each dataset in ``DATASETS`` this writes ``tests/golden/<name>.json``:
the greedy errors, the largest squared weighted training norm (the scale of
the roundoff floor), the per-order projection errors and every rule's nodes
with the runner-up gap of each pick and the per-order kappa, lambda and
interpolation errors of ``run_comparison``.

A pick's gap is the relative distance from its objective to the nearest
different objective of another admissible candidate: |r_j(t)| where the
step takes the classic pick, kappa or lambda of V_j(t) (scored over every
candidate) where it scans. Candidates with exactly the pick's objective are
not counted, since the lowest-index tie rule settles them whatever the
roundoff; a gap of null means no other candidate has a finite objective.
A pick with a small gap may flip under a different BLAS, and every later
node with it.

The files are test data: regenerate them only in a change that explains
every value that moves.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from emprint import catalog, numerics as nm, rbm
from emprint.catalog import TimeGrid
from emprint.diagnostics import run_comparison
from emprint.eim import SelectionCriterion, build_interpolant

from oracles import candidate_stack

HERE = Path(__file__).resolve().parent

# The benchmark's chirp-3rules and packet-2d data, and the exactly
# 10-dimensional poly_fourier span, whose full-order errors are roundoff.
DATASETS = {
    "chirp-3rules": dict(family="damped_chirp", k=101, l=1001,
                         param_range=((1.0, 50.0),), tol=1e-12),
    "packet-2d": dict(family="gaussian_packet", k=900, l=201,
                      param_range=((0.25, 0.75), (0.05, 0.2)), tol=1e-10),
    "poly_fourier": dict(family="poly_fourier", k=60, l=301,
                         param_range=None, tol=1e-12),
}

RULES = list(SelectionCriterion)


def build(name: str) -> tuple[catalog.TrainingSet, rbm.ReducedBasis]:
    d = DATASETS[name]
    spec = catalog.make_family_spec(d["family"], d["k"],
                                    grid=TimeGrid(0.0, 1.0, d["l"]),
                                    param_range=d["param_range"])
    ts = catalog.generate_family(spec)
    return ts, rbm.build_reduced_basis(ts, tol=d["tol"])


def outputs(ts: catalog.TrainingSet, rb: rbm.ReducedBasis) -> dict:
    """Everything the golden test compares, as JSON-ready values."""
    reports = run_comparison(rb, ts, [build_interpolant(rb, c, rb.n) for c in RULES])
    # The scale and the projection errors are shared by every rule.
    shared = reports[SelectionCriterion.CLASSIC]
    doc = {"greedy_errors": [float(x) for x in rb.greedy_errors],
           "max_train_norm_sq": shared.max_train_norm_sq,
           "proj_err_sq": [rec.max_proj_err_sq for rec in shared.per_n]}
    for rule, report in reports.items():
        doc[rule.value] = {
            "nodes": list(report.per_n[-1].nodes),
            "kappa": [rec.kappa for rec in report.per_n],
            "lambda": [rec.lebesgue for rec in report.per_n],
            "interp_err_sq": [rec.max_interp_err_sq for rec in report.per_n],
        }
    return doc


def _gap(values: np.ndarray, pick: int) -> float | None:
    best = values[pick]
    others = values[np.isfinite(values) & (values != best)]
    if others.size == 0:
        return None
    return float(np.min(np.abs(others - best)) / best)


def pick_gaps(rb: rbm.ReducedBasis, rule: SelectionCriterion) -> list:
    """Runner-up gap of each pick of ``rule`` at full order."""
    itp = build_interpolant(rb, rule, rb.n)
    nodes = list(itp.node_indices)
    gaps = []
    for j, pick in enumerate(nodes, start=1):
        if rule is not SelectionCriterion.CLASSIC and j > 1:
            element = 0 if rule is SelectionCriterion.MIN_KAPPA else 1
            values = np.asarray(
                nm.condition_and_inverse_norm(candidate_stack(rb.basis, j, nodes))[element],
                float)
        else:
            values = np.abs(itp.residuals[j - 1])
        values[nodes[: j - 1]] = math.inf
        gaps.append(_gap(values, pick))
    return gaps


def main() -> None:
    for name in DATASETS:
        ts, rb = build(name)
        doc = {"dataset": DATASETS[name], **outputs(ts, rb)}
        for rule in RULES:
            doc[rule.value]["gaps"] = pick_gaps(rb, rule)
        path = HERE / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path} (n={rb.n})")


if __name__ == "__main__":
    main()
