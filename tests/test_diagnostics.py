import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emprint import catalog, diagnostics, numerics as nm, rbm
from emprint.catalog import LengthMismatch, TimeGrid, TrainingSet
from emprint._fileio import commit
from emprint.diagnostics import curve_csvs, error_ratio_curve, report_json, run_comparison
from emprint.eim import SelectionCriterion, build_interpolant, interpolate
from emprint.numerics import error_floor_sq
from emprint.rbm import ReducedBasis

from oracles import cardinals, orthonormal_rows, weighted_norm

ALL = list(SelectionCriterion)


def compare(rb, ts, criteria, **kwargs):
    """run_comparison of the full-order interpolants of ``criteria``."""
    return run_comparison(rb, ts, [build_interpolant(rb, c, rb.n) for c in criteria], **kwargs)


@pytest.fixture(scope="module")
def small_reports(small_basis, small_training):
    return compare(small_basis, small_training, ALL,
                   dataset_id="chirp-small")


@pytest.fixture(scope="module")
def poly_fourier_data():
    # Exactly 10-dimensional span with max ||h||^2 dt ~ 2.8e3: at full order
    # every error is roundoff far above the absolute 1e-28.
    spec = catalog.make_family_spec("poly_fourier", 60, grid=TimeGrid(0.0, 1.0, 301))
    ts = catalog.generate_family(spec)
    return rbm.build_reduced_basis(ts, tol=1e-12), ts


@pytest.fixture(scope="module")
def poly_fourier_reports(poly_fourier_data):
    rb, ts = poly_fourier_data
    return compare(rb, ts, ALL)


# ---------------------------------------------------------------------------
# Comparison runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_data(small_basis, small_training):
    return small_basis, small_training


@pytest.fixture(scope="module")
def packet_data():
    # Two-parameter packet on a 14 x 14 parameter grid: a 26-vector basis.
    spec = catalog.make_family_spec("gaussian_packet", 196, grid=TimeGrid(0.0, 1.0, 201))
    ts = catalog.generate_family(spec)
    return rbm.build_reduced_basis(ts, tol=1e-10), ts


def _worst_sq_error(residual: np.ndarray, dt: float) -> float:
    return float((np.abs(residual) ** 2).sum(axis=1).max() * dt)


def assert_errors_match_solve_oracle(rb, ts, reports, floors=1.0):
    """At every order, the interpolation error from B = solve(V_n^T, E_n) and
    the error of the explicit projection onto E_n, recomputed on the grid
    with numpy, match the reports to relative 1e-9 plus ``floors`` roundoff
    floors."""
    h, dt = ts.samples, ts.grid.dt
    for report in reports.values():
        floor = floors * error_floor_sq(report.max_train_norm_sq)
        for rec in report.per_n:
            rows, nodes = rb.basis[: rec.n], list(rec.nodes)
            interp = _worst_sq_error(h - h[:, nodes] @ cardinals(rb.basis, nodes), dt)
            proj = _worst_sq_error(h - (h @ rows.conj().T) @ rows, dt)
            assert abs(rec.max_interp_err_sq - interp) <= 1e-9 * interp + floor, rec.n
            assert abs(rec.max_proj_err_sq - proj) <= 1e-9 * proj + floor, rec.n


@pytest.mark.parametrize("dataset", ["small_data", "packet_data", "poly_fourier_data"])
def test_errors_match_numpy_recomputation(request, dataset):
    rb, ts = request.getfixturevalue(dataset)
    reports = compare(rb, ts, ALL)
    # The full-order errors on the exact poly_fourier span are roundoff only;
    # there the reports and the recomputation differ by 0.004 to 0.007 floors
    # under four OpenBLAS kernels. As in test_golden.py, any value of a few
    # floors passes.
    floors = 4.0 if dataset == "poly_fourier_data" else 1.0
    assert_errors_match_solve_oracle(rb, ts, reports, floors)


@st.composite
def bases_with_training(draw):
    """A ReducedBasis of n <= 6 random orthonormal rows on L <= 40 points and
    training rows of which 1-4 lie in its span and 1-4 off it, each scaled
    by a random factor within 10^(+-3)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    length = draw(st.integers(n + 2, 40))
    k_in, k_off = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = orthonormal_rows(rng, n, length)
    inside = (rng.standard_normal((k_in, n)) + 1j * rng.standard_normal((k_in, n))) @ rows
    off = rng.standard_normal((k_off, length)) + 1j * rng.standard_normal((k_off, length))
    samples = np.vstack([inside, off]) * 10.0 ** rng.uniform(-3, 3, (k_in + k_off, 1))
    grid = TimeGrid(0.0, 1.0, length)
    rb = ReducedBasis(grid, rows, np.full(n, 0.5), tuple(range(n)), 1e-12)
    ts = TrainingSet(grid, np.arange(k_in + k_off, dtype=float), samples)
    return rb, ts


@settings(max_examples=60, deadline=None)
@given(bases_with_training())
def test_errors_match_solve_oracle_on_random_bases(data):
    rb, ts = data
    reports = compare(rb, ts, ALL)
    assert_errors_match_solve_oracle(rb, ts, reports)


def test_comparison_allocates_no_block_per_order(monkeypatch, packet_data):
    # Each order updates the K x 2N block of node values and coefficients in
    # place: from one order's elimination step to the next, the traced
    # memory peaks far below the block's size.
    rb, ts = packet_data
    interpolants = [build_interpolant(rb, c, rb.n) for c in ALL]
    block_bytes = ts.samples.shape[0] * 2 * rb.n * 16
    eliminate = diagnostics._eliminate
    since_previous = []
    start = []

    def traced(x, t, residual):
        current, peak = tracemalloc.get_traced_memory()
        if t > 0:  # t = 0 starts a criterion, after its block is built
            since_previous.append(peak - start[-1])
        tracemalloc.reset_peak()
        start.append(current)
        eliminate(x, t, residual)

    monkeypatch.setattr(diagnostics, "_eliminate", traced)
    tracemalloc.start()
    try:
        run_comparison(rb, ts, interpolants)
    finally:
        tracemalloc.stop()
    assert len(since_previous) == len(ALL) * (rb.n - 1)
    assert max(since_previous) < block_bytes / 8


def test_comparison_needs_full_order_interpolants_of_its_basis(small_basis, small_training):
    classic = SelectionCriterion.CLASSIC
    other_basis = rbm.build_reduced_basis(small_training, tol=1e-12)
    for itp in (build_interpolant(small_basis, classic, small_basis.n - 1),
                build_interpolant(other_basis, classic, other_basis.n)):
        with pytest.raises(ValueError, match="full-order interpolants of its basis"):
            run_comparison(small_basis, small_training, [itp])


def test_chirp_floor_is_absolute(small_reports):
    # Chirp rows have norm below 1, so the scaled floor is exactly the
    # absolute one and the bounds below are as strict as 1e-28.
    for report in small_reports.values():
        assert report.max_train_norm_sq < 1.0
        assert error_floor_sq(report.max_train_norm_sq) == 1e-28


def test_projection_bounds_interpolation(small_reports):
    for report in small_reports.values():
        floor = error_floor_sq(report.max_train_norm_sq)
        for rec in report.per_n:
            assert rec.max_proj_err_sq <= rec.max_interp_err_sq * (1 + 1e-10) + floor


def test_projection_errors_monotone(small_reports):
    for report in small_reports.values():
        floor = error_floor_sq(report.max_train_norm_sq)
        errs = [rec.max_proj_err_sq for rec in report.per_n]
        assert all(b <= a * (1 + 1e-12) + floor for a, b in zip(errs, errs[1:]))


def test_report_rejects_projection_above_interpolation(small_reports,
                                                       poly_fourier_reports):
    for report in (small_reports[SelectionCriterion.CLASSIC],
                   poly_fourier_reports[SelectionCriterion.CLASSIC]):
        floor = error_floor_sq(report.max_train_norm_sq)
        last = report.per_n[-1]
        bad = dataclasses.replace(
            last, max_proj_err_sq=last.max_interp_err_sq * (1 + 1e-8) + 10 * floor)
        with pytest.raises(ValueError, match="projection error exceeds"):
            dataclasses.replace(report, per_n=report.per_n[:-1] + (bad,))


def test_report_rejects_bad_norm_scale(small_reports):
    report = small_reports[SelectionCriterion.CLASSIC]
    for scale in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="max_train_norm_sq"):
            dataclasses.replace(report, max_train_norm_sq=scale)


def test_kappa_matches_stored_prefix(small_basis, small_reports):
    report = small_reports[SelectionCriterion.CLASSIC]
    itp = build_interpolant(small_basis, SelectionCriterion.CLASSIC, small_basis.n)
    for rec in report.per_n:
        recomputed = nm.condition_and_inverse_norm(itp.v_matrix[: rec.n, : rec.n])[0]
        assert abs(rec.kappa - recomputed) <= 1e-10 * recomputed


def test_nodes_nested_within_report(small_reports):
    for report in small_reports.values():
        for prev, cur in zip(report.per_n, report.per_n[1:]):
            assert cur.nodes[: prev.n] == prev.nodes


def test_poly_fourier_interpolant_is_exact_at_full_order():
    spec = catalog.make_family_spec("poly_fourier", 60, grid=TimeGrid(0.0, 1.0, 301))
    ts = catalog.generate_family(spec)
    rb = rbm.build_reduced_basis(ts, tol=1e-12)
    assert rb.n == 10
    reports = compare(rb, ts, [SelectionCriterion.CLASSIC])
    assert reports[SelectionCriterion.CLASSIC].per_n[-1].max_interp_err_sq <= 1e-18


# ---------------------------------------------------------------------------
# Ratio curves
# ---------------------------------------------------------------------------

def test_ratio_of_report_with_itself(small_reports):
    report = small_reports[SelectionCriterion.CLASSIC]
    assert error_ratio_curve(report, report) == [1.0] * len(report.per_n)


def test_ratio_below_floor_is_one(small_reports):
    report = small_reports[SelectionCriterion.CLASSIC]
    rec = dataclasses.replace(report.per_n[-1], max_interp_err_sq=1e-30,
                              max_proj_err_sq=0.0)
    tiny = dataclasses.replace(report, per_n=(rec,))
    assert error_ratio_curve(tiny, tiny) == [1.0]


def test_ratio_classic_vs_kappa_band(small_reports):
    ratios = error_ratio_curve(small_reports[SelectionCriterion.CLASSIC],
                               small_reports[SelectionCriterion.MIN_KAPPA])
    assert all(1e-2 <= r <= 1e2 for r in ratios)


def test_poly_fourier_full_order_ratio_is_one(poly_fourier_reports):
    # Full-order errors are all roundoff; their ratio is noise, reported as 1.
    classic = poly_fourier_reports[SelectionCriterion.CLASSIC]
    for other in (SelectionCriterion.MIN_KAPPA, SelectionCriterion.MIN_LAMBDA):
        assert error_ratio_curve(classic, poly_fourier_reports[other])[-1] == 1.0


def test_ratio_floor_grows_with_lebesgue_squared(poly_fourier_reports):
    # An interpolant with Lebesgue constant 10 amplifies the roundoff in its
    # node values up to 10x, so squared errors up to 100 floors are roundoff
    # and read a ratio of 1; above that the ratio is a / b.
    report = poly_fourier_reports[SelectionCriterion.MIN_KAPPA]
    floor = error_floor_sq(report.max_train_norm_sq)

    def full_order(err):
        rec = dataclasses.replace(report.per_n[-1], lebesgue=10.0,
                                  max_interp_err_sq=err, max_proj_err_sq=0.0)
        return dataclasses.replace(report, per_n=(rec,))

    assert error_ratio_curve(full_order(2 * floor), full_order(90 * floor)) == [1.0]
    a, b = 300 * floor, 120 * floor
    assert error_ratio_curve(full_order(a), full_order(b)) == [a / b]


def test_ratio_length_mismatch(small_reports):
    a = small_reports[SelectionCriterion.CLASSIC]
    b = dataclasses.replace(a, per_n=a.per_n[:-1])
    with pytest.raises(LengthMismatch):
        error_ratio_curve(a, b)


# ---------------------------------------------------------------------------
# Norm identities
# ---------------------------------------------------------------------------

def test_identity_checks_scalar_case(small_basis):
    # At order 1, ||B||, ||V^{-1}|| and the Lebesgue constant are all
    # 1 / |e_1(T_1)|, and kappa is exactly 1.
    itp = build_interpolant(small_basis, SelectionCriterion.CLASSIC, 1)
    t1 = itp.node_indices[0]
    expected = 1.0 / abs(small_basis.basis[0, t1])
    assert np.linalg.norm(itp.b_matrix.T, 2) == pytest.approx(expected, rel=1e-12)
    assert nm.condition_and_inverse_norm(itp.v_matrix)[1] == pytest.approx(expected, rel=1e-12)
    assert itp.per_step[0].kappa == 1.0


def test_operator_norm_identity_random_unitary_basis(rng):
    rows = orthonormal_rows(rng, 6, 120)
    rb = ReducedBasis(TimeGrid(0.0, 1.0, 120), rows, np.full(6, 0.5),
                      tuple(range(6)), 1e-12)
    itp = build_interpolant(rb, SelectionCriterion.CLASSIC, 6)
    lam = nm.condition_and_inverse_norm(itp.v_matrix)[1]
    assert abs(np.linalg.norm(itp.b_matrix.T, 2) - lam) <= 1e-8 * lam
    # Oracle: the zero-padded grid-to-grid operator has the same largest
    # singular value as the node-value block.
    full = np.zeros((120, 120), dtype=complex)
    full[:, list(itp.node_indices)] = itp.b_matrix.T
    sv = np.linalg.svd(full, compute_uv=False)
    assert abs(sv[0] - lam) <= 1e-8 * lam


def test_norm_product_identity_every_prefix(small_basis):
    # Each step record's kappa factors as ||V_n|| ||V_n^{-1}||, and the
    # operator norm of the order-n cardinals (a numpy solve) is its
    # Lebesgue constant.
    full = build_interpolant(small_basis, SelectionCriterion.CLASSIC, small_basis.n)
    for n in range(1, small_basis.n + 1):
        nodes = full.node_indices[:n]
        step = full.per_step[n - 1]
        v = small_basis.basis[:n][:, list(nodes)].T
        assert abs(step.kappa - np.linalg.norm(v, 2) * step.lebesgue) <= 1e-10 * step.kappa
        b = cardinals(small_basis.basis, nodes)
        assert abs(np.linalg.norm(b, 2) - step.lebesgue) <= 1e-8 * step.lebesgue


def test_weighted_and_euclidean_operator_norms_coincide(rng, small_basis):
    # With a uniform weight the operator norm is weight-independent: feeding
    # the weighted norm through the interpolation map scales top and bottom
    # by the same sqrt(dt).
    itp = build_interpolant(small_basis, SelectionCriterion.CLASSIC, small_basis.n)
    dt = small_basis.grid.dt
    op_norm = np.linalg.norm(itp.b_matrix.T, 2)
    worst = 0.0
    for _ in range(40):
        vals = rng.standard_normal(itp.n) + 1j * rng.standard_normal(itp.n)
        h = np.zeros(small_basis.grid.n_samples, dtype=complex)
        h[list(itp.node_indices)] = vals
        ratio = weighted_norm(interpolate(itp, vals), dt) / weighted_norm(h, dt)
        worst = max(worst, ratio)
    assert worst <= op_norm * (1 + 1e-10)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_report_json(tmp_path, small_reports):
    report = small_reports[SelectionCriterion.MIN_LAMBDA]
    path = tmp_path / "report.json"
    commit({path: report_json(report)})
    doc = json.loads(path.read_text())
    assert doc["criterion"] == "lambda"
    assert doc["dataset_id"] == "chirp-small"
    assert doc["basis_convention"] == diagnostics.BASIS_CONVENTION
    assert len(doc["per_n"]) == len(report.per_n)
    assert doc["per_n"][0]["nodes"] == list(report.per_n[0].nodes)


def test_curve_csvs(tmp_path, small_reports):
    curves = curve_csvs(small_reports)
    commit({tmp_path / name: data for name, data in curves.items()})
    names = list(curves)
    assert sorted(names) == ["errors.csv", "kappa.csv", "lambda.csv", "nodes.csv"]

    err_lines = (tmp_path / "errors.csv").read_text().splitlines()
    header = err_lines[0].split(",")
    assert header[0] == "n" and header[1] == "proj_err_sq"
    assert set(header[2:]) == {"interp_err_sq_classic", "interp_err_sq_kappa",
                               "interp_err_sq_lambda"}
    floor = error_floor_sq(max(rep.max_train_norm_sq for rep in small_reports.values()))
    for line in err_lines[1:]:
        cells = [float(x) for x in line.split(",")]
        proj = cells[1]
        for interp in cells[2:]:
            assert proj <= interp * (1 + 1e-10) + floor

    node_lines = (tmp_path / "nodes.csv").read_text().splitlines()[1:]
    by_criterion = {}
    for line in node_lines:
        criterion, n, nodes = line.split(",")
        by_criterion.setdefault(criterion, []).append(nodes.split())
    for rows in by_criterion.values():
        for prev, cur in zip(rows, rows[1:]):
            assert cur[: len(prev)] == prev

    kappa_lines = (tmp_path / "kappa.csv").read_text().splitlines()
    assert kappa_lines[0].split(",")[1:] == ["kappa_classic", "kappa_kappa",
                                             "kappa_lambda"]
    assert all(float(v) >= 1.0 for v in kappa_lines[1].split(",")[1:])
