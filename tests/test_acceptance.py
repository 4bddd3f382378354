"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line. Run with ``pytest tests/test_acceptance.py -v -s``.

The shared dataset is the wide-range damped chirp (lambda in [1, 50],
K=101 waveforms, L=1001 samples, tol=1e-12), which resolves to a basis of
19 vectors; the default lambda range [1, 5] is too smooth to reach the
required basis size, so the range is part of the pinned configuration.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from emprint import catalog, diagnostics, eim, rbm
from emprint import numerics as nm
from emprint.cli import main
from emprint.eim import SelectionCriterion

from oracles import cardinals

ALL = list(SelectionCriterion)

# Machine-zero floor for per-row error comparisons: rows that lie in the
# span have both errors at roundoff, where ordering is noise, not math.
ROW_ERR_FLOOR = 1e-14


@contextmanager
def acceptance(label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


@pytest.fixture(scope="module")
def interpolants(chirp_basis):
    return {c: eim.build_interpolant(chirp_basis, c, chirp_basis.n) for c in ALL}


@pytest.fixture(scope="module")
def reports(chirp_basis, chirp_training):
    return diagnostics.run_comparison(chirp_basis, chirp_training, criteria=ALL,
                                      dataset_id="acceptance-chirp")


def test_01_residual_is_determinant_ratio(chirp_basis):
    with acceptance("1 (residual equals determinant ratio at every grid point)"):
        assert chirp_basis.n >= 12
        start = time.perf_counter()
        discrepancies = eim.verify_determinant_identity(chirp_basis, chirp_basis.n)
        elapsed = time.perf_counter() - start
        assert len(discrepancies) == chirp_basis.n - 1
        assert max(discrepancies) <= 1e-7
        assert elapsed <= 60.0


@pytest.mark.parametrize("criterion,objective", [
    (SelectionCriterion.MIN_KAPPA, nm.condition_number_2),
    (SelectionCriterion.MIN_LAMBDA, nm.inverse_two_norm),
])
def test_02_variant_nodes_are_optimal(chirp_basis, interpolants, criterion, objective):
    with acceptance(f"2 (per-step optimality of the {criterion.value} objective)"):
        itp = interpolants[criterion]
        rows = chirp_basis.basis
        n_grid = rows.shape[1]
        for j in range(2, itp.n + 1):
            prefix = list(itp.node_indices[: j - 1])
            chosen = objective(rows[:j][:, prefix + [itp.node_indices[j - 1]]].T)
            candidate = np.empty((j, j), dtype=complex)
            candidate[: j - 1] = rows[:j][:, prefix].T
            for t in range(n_grid):
                if t in prefix:
                    continue
                candidate[j - 1] = rows[:j, t]
                assert chosen <= objective(candidate) * (1 + 1e-9)


def test_03_cardinal_and_exactness(chirp_basis, interpolants):
    with acceptance("3 (cardinal property and exactness on the span)"):
        for itp in interpolants.values():
            cardinal = itp.b_matrix[:, list(itp.node_indices)]
            assert np.max(np.abs(cardinal - np.eye(itp.n))) <= 1e-10
            for k in range(itp.n):
                ek = chirp_basis.basis[k]
                out = eim.interpolate_function(itp, ek)
                assert np.linalg.norm(out - ek) <= 1e-9 * np.linalg.norm(ek)


def test_04_error_ordering_and_lebesgue_bound(chirp_basis, chirp_training,
                                              interpolants):
    with acceptance("4 (projection <= interpolation <= Lebesgue * projection)"):
        samples = chirp_training.samples
        dt = chirp_training.grid.dt
        norms = np.sqrt(np.einsum("ij,ij->i", samples.conj(), samples).real * dt)
        floor = ROW_ERR_FLOOR * norms
        coeffs = samples @ chirp_basis.basis.conj().T
        for itp in interpolants.values():
            for n in range(1, itp.n + 1):
                nodes = list(itp.node_indices[:n])
                interpolated = samples[:, nodes] @ cardinals(chirp_basis.basis, nodes)
                projected = coeffs[:, :n] @ chirp_basis.basis[:n]
                interp_err = np.sqrt(np.einsum(
                    "ij,ij->i", (samples - interpolated).conj(),
                    samples - interpolated).real * dt)
                proj_err = np.sqrt(np.einsum(
                    "ij,ij->i", (samples - projected).conj(),
                    samples - projected).real * dt)
                interp_err = np.maximum(interp_err, floor)
                proj_err = np.maximum(proj_err, floor)
                lam = itp.per_step[n - 1].lebesgue
                assert np.all(proj_err <= interp_err * (1 + 1e-10))
                assert np.all(interp_err <= lam * proj_err * (1 + 1e-8))


def test_05_norm_identities(chirp_basis, interpolants):
    with acceptance("5 (condition number factors; operator norm matches)"):
        for itp in interpolants.values():
            for n in range(1, itp.n + 1):
                nodes = list(itp.node_indices[:n])
                step = itp.per_step[n - 1]
                v = chirp_basis.basis[:n][:, nodes].T
                b = cardinals(chirp_basis.basis, nodes)
                assert abs(step.kappa - np.linalg.norm(v, 2) * step.lebesgue) <= 1e-10 * step.kappa
                assert abs(np.linalg.norm(b, 2) - step.lebesgue) <= 1e-8 * step.lebesgue


@pytest.mark.parametrize("k", [10, 47, 200])
def test_06_finite_family_saturates(k):
    with acceptance(f"6 (10-term family saturates at n=10, K={k})"):
        spec = catalog.make_family_spec("poly_fourier", k,
                                        grid=catalog.TimeGrid(0.0, 1.0, 1001))
        ts = catalog.generate_family(spec)
        rb = rbm.build_reduced_basis(ts, tol=1e-12)
        assert rb.n == 10
        assert rb.greedy_errors[-1] <= 1e-12
        assert rb.greedy_errors[-2] > 1e-12


def test_07_convergence_band(chirp_basis, reports):
    with acceptance("7 (fast greedy decay; interpolation stays near projection)"):
        errs = chirp_basis.greedy_errors
        n_ten_orders = next(
            (m + 1 for m, e in enumerate(errs) if e <= errs[0] * 1e-10), None)
        assert n_ten_orders is not None and n_ten_orders <= 25
        for report in reports.values():
            for rec in report.per_n:
                assert rec.max_interp_err_sq <= 1e4 * rec.max_proj_err_sq


def test_08_pipeline_on_ingested_csv(tmp_path, chirp_training):
    with acceptance("8 (compare pipeline runs end to end on an ingested CSV)"):
        assert chirp_training.k >= 100
        csv_path = tmp_path / "ingested.csv"
        catalog.save_training_csv(chirp_training, csv_path)
        code = main(["compare", "--input", str(csv_path),
                     "--criteria", "classic,kappa,lambda",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        for name in ("kappa.csv", "lambda.csv", "errors.csv", "nodes.csv"):
            assert (tmp_path / name).stat().st_size > 0


def test_09_determinism(tmp_path):
    with acceptance("9 (identical config reruns are byte-identical)"):
        spec = ["--family", "damped_chirp", "--k", "40", "--l", "301",
                "--param-range", "1:20"]
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["generate", *spec, "--out-dir", str(out)]) == 0
            assert main(["compare", *spec, "--out-dir", str(out),
                         "--criteria", "classic,kappa,lambda"]) == 0
            assert main(["verify-theorem", *spec, "--out-dir", str(out)]) == 0
            runs.append(out)
        a, b = runs
        names = ["training.csv", "kappa.csv", "lambda.csv", "errors.csv",
                 "nodes.csv", "report_classic.json", "report_kappa.json",
                 "report_lambda.json", "theorem_check.csv"]
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()
