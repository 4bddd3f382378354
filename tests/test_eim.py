import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from scipy.linalg.blas import zgeru
from hypothesis import strategies as st

from emprint import eim, rbm
from emprint import numerics as nm
from emprint.catalog import InvalidRange, LengthMismatch, TimeGrid
from emprint.eim import (EmpiricalInterpolant, SelectionCriterion, SingularVMatrix,
                         build_interpolant, interpolate, interpolate_function,
                         interpolant_json, verify_determinant_identity)
from emprint._fileio import commit
from emprint.numerics import TIE_REL_TOL, argmax_tied
from emprint.rbm import ReducedBasis

from oracles import (candidate_stack, eliminate, full_scan, laplace_det, lu_ratio_scan,
                     orthonormal_rows, project, solve_residual, weighted_norm)

ALL_CRITERIA = list(SelectionCriterion)
# The element of condition_and_inverse_norm each rule minimizes.
OBJECTIVES = {SelectionCriterion.MIN_KAPPA: 0, SelectionCriterion.MIN_LAMBDA: 1}


def make_basis(rows: np.ndarray, grid: TimeGrid | None = None) -> ReducedBasis:
    n, length = rows.shape
    grid = grid or TimeGrid(0.0, 1.0, length)
    return ReducedBasis(grid, rows, np.full(n, 0.5), tuple(range(n)), 1e-12)


# ---------------------------------------------------------------------------
# Node selection
# ---------------------------------------------------------------------------

def test_first_node_is_max_of_first_row():
    row = np.full(20, 0.1, dtype=complex)
    row[7] = 0.9
    row /= np.linalg.norm(row)
    rb = make_basis(row.reshape(1, -1))
    for criterion in ALL_CRITERIA:
        itp = build_interpolant(rb, criterion, 1)
        assert itp.node_indices == (7,)


def test_classic_residual_vanishes_at_previous_nodes(chirp_basis):
    n = 15
    itp = build_interpolant(chirp_basis, SelectionCriterion.CLASSIC, n)
    rows = chirp_basis.basis
    for j in range(2, n + 1):
        prefix = list(itp.node_indices[: j - 1])
        residual = solve_residual(rows, j, prefix)
        assert np.max(np.abs(residual[prefix])) <= 1e-10
        assert np.max(np.abs(itp.residuals[j - 1, prefix])) <= 1e-10


@pytest.mark.parametrize("criterion", ALL_CRITERIA)
def test_classic_residual_equals_determinant_ratio(chirp_basis, criterion):
    # The per-step records hold |r_j(T_j)| and det(V_j); the selected node's
    # residual must equal the growth of the determinant, whatever rule
    # picked the node.
    itp = build_interpolant(chirp_basis, criterion, 15)
    prev = 1.0 + 0j
    for rec in itp.per_step:
        ratio = abs(rec.det_v / prev)
        assert rec.residual_at_node == pytest.approx(ratio, rel=1e-8)
        prev = rec.det_v


def test_classic_maximizes_determinant_growth(chirp_basis):
    # Among single-node extensions, the chosen node maximizes |det V_j|.
    itp = build_interpolant(chirp_basis, SelectionCriterion.CLASSIC, 8)
    rows = chirp_basis.basis
    for j in range(2, 9):
        prefix = list(itp.node_indices[: j - 1])
        chosen = itp.node_indices[j - 1]
        block = rows[:j][:, prefix].T
        vj = np.empty((j, j), dtype=complex)
        vj[: j - 1] = block
        dets = np.empty(rows.shape[1])
        for t in range(rows.shape[1]):
            vj[j - 1] = rows[:j, t]
            dets[t] = abs(nm.determinant(vj))
        assert dets[chosen] >= dets.max() * (1 - 1e-9)


@pytest.mark.parametrize("basis_name", ["small_basis", "chirp_basis"])
@pytest.mark.parametrize("criterion", list(OBJECTIVES), ids=["kappa", "lambda"])
def test_variant_steps_are_optimal(request, basis_name, criterion):
    # small_basis (L = 301) fits one candidate stack, chirp_basis (L = 1001)
    # spans four; the reference scores one candidate matrix at a time.
    basis = request.getfixturevalue(basis_name)
    element = OBJECTIVES[criterion]
    n = basis.n
    itp = build_interpolant(basis, criterion, n)
    rows = basis.basis
    n_grid = rows.shape[1]
    for j in range(2, n + 1):
        prefix = list(itp.node_indices[: j - 1])
        chosen_value = nm.condition_and_inverse_norm(
            rows[:j][:, prefix + [itp.node_indices[j - 1]]].T)[element]
        vj = np.empty((j, j), dtype=complex)
        vj[: j - 1] = rows[:j][:, prefix].T
        for t in range(n_grid):
            if t in prefix:
                continue
            vj[j - 1] = rows[:j, t]
            assert chosen_value <= nm.condition_and_inverse_norm(vj)[element] * (1 + 1e-9)


@pytest.mark.parametrize("criterion", ALL_CRITERIA)
def test_exact_ties_resolve_to_lower_index(rng, criterion):
    # Every grid column appears twice, at t and t + 300, so every candidate
    # matrix has an identical twin in another candidate stack; every pick,
    # the first node included, must be the lower copy.
    m = 300
    base = orthonormal_rows(rng, 6, m)
    rb = make_basis(np.hstack([base, base]) / np.sqrt(2))
    itp = build_interpolant(rb, criterion, 6)
    assert all(t < m for t in itp.node_indices)


def assert_picks_match_full_scan(rows, criterion):
    """Each pick of the pruned scan is the full scan's pick after the same
    prefix, and that pick survives the pruning against the classic pick."""
    def objective(m):
        return nm.condition_and_inverse_norm(m)[OBJECTIVES[criterion]]

    nodes, _ = eim._select_nodes(rows, criterion, rows.shape[0])
    for j in range(2, rows.shape[0] + 1):
        prefix = nodes[: j - 1]
        reference = full_scan(rows, j, prefix, objective, TIE_REL_TOL)
        assert nodes[j - 1] == reference
        incumbent = argmax_tied(np.abs(solve_residual(rows, j, prefix)))
        best = objective(rows[:j][:, prefix + [incumbent]].T)
        assert reference in eim._survivors(rows, j, prefix, criterion, best)


@pytest.mark.parametrize("criterion", list(OBJECTIVES), ids=["kappa", "lambda"])
@pytest.mark.parametrize("basis_name", ["small_basis", "chirp_basis"])
def test_pruned_scan_matches_full_scan(request, basis_name, criterion):
    basis = request.getfixturevalue(basis_name)
    assert_picks_match_full_scan(basis.basis, criterion)


def graded_rows(rng, n, length, near, grading, spread):
    """Random orthonormal complex rows (n, ``length``), optionally made
    ill-conditioned: half the grid points nearly repeat others (relative
    perturbation ``near``), the rows are scaled from 1 down to 10^-``grading``,
    and each grid point by a random factor within 10^(+-``spread``)."""
    points = rng.standard_normal((length, n)) + 1j * rng.standard_normal((length, n))
    if near:
        half = length // 2
        copies = points[rng.integers(0, length - half, half)]
        noise = rng.standard_normal((half, n)) + 1j * rng.standard_normal((half, n))
        points[length - half:] = copies + near * np.abs(copies) * noise
    q, _ = np.linalg.qr(points)
    return (q.T * np.logspace(0, -grading, n)[:, None]
            * 10.0 ** rng.uniform(-spread, spread, length))


@st.composite
def hard_bases(draw, max_n=7, gradings=(0, 3, 8), spreads=(0, 4)):
    """``graded_rows`` with n <= ``max_n``, 2n <= L <= 60, ``near`` one of
    0, 1e-3, 1e-7, 1e-11, and grading and spread drawn from ``gradings`` and
    ``spreads``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, max_n))
    length = draw(st.integers(2 * n, 60))
    near = draw(st.sampled_from([0.0, 1e-3, 1e-7, 1e-11]))
    grading = draw(st.sampled_from(gradings))
    spread = draw(st.sampled_from(spreads))
    return graded_rows(rng, n, length, near, grading, spread)


@settings(max_examples=80, deadline=None)
@given(hard_bases(), st.sampled_from(list(OBJECTIVES)))
def test_pruned_scan_matches_full_scan_on_hard_bases(rows, criterion):
    assert_picks_match_full_scan(rows, criterion)


@settings(max_examples=80, deadline=None)
@given(hard_bases())
def test_elimination_matches_solve_oracle_on_hard_bases(rows):
    # Each residual of the elimination is the solve-route residual after the
    # same prefix, within roundoff amplified by kappa(V_{j-1}), and each
    # classic pick is the oracle's.
    n = rows.shape[0]
    nodes, residuals = eim._select_nodes(rows, SelectionCriterion.CLASSIC, n)
    eps = np.finfo(np.float64).eps
    for j in range(1, n + 1):
        reference = solve_residual(rows, j, nodes)
        kappa = (nm.condition_and_inverse_norm(rows[: j - 1][:, nodes[: j - 1]].T)[0]
                 if j > 1 else 1.0)
        bound = 32 * j * eps * kappa * np.abs(rows[:j]).max()
        assert np.abs(residuals[j - 1] - reference).max() <= bound
        assert nodes[j - 1] == argmax_tied(np.abs(reference))


# Block layouts for the elimination step: the shape of the array that owns
# the block's memory, for k rows of length L, and the block as a view of it.
# "transposed" with k = 1 is a (1, L) block with strides (16, 32).
LAYOUTS = {
    "c": (lambda k, length: (k, length), lambda a: a),
    "strided": (lambda k, length: (k, 2 * length), lambda a: a[:, ::2]),
    "transposed": (lambda k, length: (length, k + 1), lambda a: a.T[:-1]),
}


def rounding_bound(x: np.ndarray, t: int, residual: np.ndarray) -> np.ndarray:
    """Per entry, how far two roundings of x - (x[:, t] / r(t)) r may lie
    apart: a few eps of the operands' magnitudes, whether or not a product
    and its difference are fused."""
    eps = np.finfo(np.float64).eps
    return 8 * eps * (np.abs(x) + np.abs(x[:, t] / residual[t])[:, None] * np.abs(residual))


@pytest.mark.parametrize("k", [0, 1, 5])
@pytest.mark.parametrize("layout", list(LAYOUTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_elimination_step_matches_outer_product(layout, k, data):
    # Entries spread over six decades; the rest of the owning array is kept.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    length = data.draw(st.integers(1, 12))
    t = data.draw(st.integers(0, length - 1))
    values, residual = (
        (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        * 10.0 ** rng.uniform(-3, 3, shape) for shape in ((k, length), length))
    owner_shape, view = LAYOUTS[layout]
    owner = np.full(owner_shape(k, length), 7 + 7j)
    x = view(owner)
    x[...] = values
    outside = np.ones(owner.shape, bool)
    view(outside)[...] = False
    eim._eliminate(x, t, residual)
    assert np.all(np.abs(x - eliminate(values, t, residual))
                  <= rounding_bound(values, t, residual))
    assert np.all(owner[outside] == 7 + 7j)


def test_elimination_step_works_in_the_blocks_memory(monkeypatch, rng):
    # zgeru updates a C-contiguous block through its transpose and hands
    # back that same memory: no copy is made and written back.
    x = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    residual = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    expected, bound = eliminate(x, 4, residual), rounding_bound(x, 4, residual)
    returned = []
    monkeypatch.setattr(eim, "zgeru", lambda *args, **kwargs: (
        returned.append(zgeru(*args, **kwargs)) or returned[-1]))
    eim._eliminate(x, 4, residual)
    [matrix] = returned
    assert matrix.ctypes.data == x.ctypes.data
    assert np.all(np.abs(x - expected) <= bound)


@pytest.mark.parametrize("criterion", list(OBJECTIVES), ids=["kappa", "lambda"])
def test_scan_scores_few_candidates(monkeypatch, chirp_basis, criterion):
    # A full scan scores sum_{j=2..n} (L - j + 1) candidate matrices; the
    # pruned scan passes under a tenth of that to the stacked objective.
    scored = []
    fn = nm.condition_and_inverse_norm
    monkeypatch.setattr(nm, "condition_and_inverse_norm", lambda m: (
        scored.append(len(m) if np.ndim(m) == 3 else 0) or fn(m)))
    build_interpolant(chirp_basis, criterion, chirp_basis.n)
    length, n = chirp_basis.grid.n_samples, chirp_basis.n
    assert 0 < sum(scored) < 0.1 * sum(length - j + 1 for j in range(2, n + 1))


def test_nodes_are_nested(small_basis):
    for criterion in ALL_CRITERIA:
        full = build_interpolant(small_basis, criterion, small_basis.n)
        shorter = build_interpolant(small_basis, criterion, small_basis.n - 1)
        assert shorter.node_indices == full.node_indices[: small_basis.n - 1]


def test_nodes_are_distinct(small_basis):
    for criterion in ALL_CRITERIA:
        itp = build_interpolant(small_basis, criterion, small_basis.n)
        assert len(set(itp.node_indices)) == itp.n


@pytest.mark.parametrize("criterion", ALL_CRITERIA)
def test_one_factorization_per_step(monkeypatch, small_basis, criterion):
    # Residuals, picks and cardinal functions all come from the elimination
    # step: a build neither factors a matrix for a linear solve nor inverts
    # one. Determinants of the step records may use LU.
    def forbidden(*args, **kwargs):
        raise AssertionError("linear solve or factorization called")
    for module, names in ((np.linalg, ("solve", "inv", "lstsq")),
                          (scipy.linalg, ("lu", "lu_factor", "lu_solve", "solve",
                                          "inv", "lstsq", "solve_triangular"))):
        for name in names:
            monkeypatch.setattr(module, name, forbidden)
    build_interpolant(small_basis, criterion, small_basis.n)


def test_one_svd_per_step_record(monkeypatch, small_basis):
    # A classic build scans nothing, so its only singular values are the
    # step records': one computation per step gives kappa and lambda.
    real_svd = np.linalg.svd
    calls = []

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    itp = build_interpolant(small_basis, SelectionCriterion.CLASSIC, small_basis.n)
    assert len(calls) == small_basis.n
    monkeypatch.undo()
    for j, step in enumerate(itp.per_step, start=1):
        vj = itp.v_matrix[:j, :j]
        assert (step.kappa, step.lebesgue) == nm.condition_and_inverse_norm(vj)


@pytest.mark.parametrize("criterion", [SelectionCriterion.MIN_KAPPA,
                                       SelectionCriterion.MIN_LAMBDA])
def test_scanned_step_records_come_from_the_scan(monkeypatch, small_basis, criterion):
    # The scan scores its incumbent alone (one single-matrix call per step
    # j >= 2) and the survivors in stacks; its winner's (kappa, lambda) serve
    # the step record, so only step 1's record computes its own.
    real = nm.condition_and_inverse_norm
    single = []

    def counting(m):
        single.append(np.ndim(m) == 2)
        return real(m)

    monkeypatch.setattr(nm, "condition_and_inverse_norm", counting)
    itp = build_interpolant(small_basis, criterion, small_basis.n)
    assert sum(single) == small_basis.n
    monkeypatch.undo()
    for j, step in enumerate(itp.per_step, start=1):
        vj = itp.v_matrix[:j, :j]
        assert (step.kappa, step.lebesgue) == nm.condition_and_inverse_norm(vj)


def test_build_rejects_bad_order(small_basis):
    with pytest.raises(ValueError):
        build_interpolant(small_basis, SelectionCriterion.CLASSIC, 0)
    with pytest.raises(ValueError):
        build_interpolant(small_basis, SelectionCriterion.CLASSIC, small_basis.n + 1)


@pytest.mark.parametrize("build", [
    lambda rb, n: build_interpolant(rb, SelectionCriterion.CLASSIC, n),
    verify_determinant_identity,
], ids=["build_interpolant", "verify_determinant_identity"])
@pytest.mark.parametrize("order", ["zero", "above-basis-size"])
def test_bad_order_raises_invalid_range(small_basis, build, order):
    n = 0 if order == "zero" else small_basis.n + 1
    with pytest.raises(InvalidRange, match=rf"order {n} outside 1\.\.{small_basis.n} "
                                           r"\(the basis size\)"):
        build(small_basis, n)


# ---------------------------------------------------------------------------
# Cardinal functions and evaluation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("criterion", ALL_CRITERIA)
def test_cardinal_property(small_basis, criterion):
    itp = build_interpolant(small_basis, criterion, small_basis.n)
    cardinal = itp.b_matrix[:, list(itp.node_indices)]
    assert np.max(np.abs(cardinal - np.eye(itp.n))) <= 1e-10


@pytest.mark.parametrize("criterion", ALL_CRITERIA)
def test_exact_on_basis_rows(small_basis, criterion):
    itp = build_interpolant(small_basis, criterion, small_basis.n)
    for k in range(itp.n):
        ek = small_basis.basis[k]
        out = interpolate_function(itp, ek)
        assert np.linalg.norm(out - ek) <= 1e-9 * np.linalg.norm(ek)


def test_interpolate_identity_rows_give_cardinals(small_basis):
    itp = build_interpolant(small_basis, SelectionCriterion.CLASSIC, 5)
    for i in range(5):
        unit = np.zeros(5, dtype=complex)
        unit[i] = 1.0
        assert np.array_equal(interpolate(itp, unit), itp.b_matrix[i])


def test_interpolate_zero_values(small_basis):
    itp = build_interpolant(small_basis, SelectionCriterion.CLASSIC, 4)
    assert np.all(interpolate(itp, np.zeros(4)) == 0)


def test_interpolate_reproduces_node_values(rng, small_basis):
    itp = build_interpolant(small_basis, SelectionCriterion.CLASSIC, small_basis.n)
    vals = rng.standard_normal(itp.n) + 1j * rng.standard_normal(itp.n)
    out = interpolate(itp, vals)
    assert np.max(np.abs(out[list(itp.node_indices)] - vals)) <= 1e-10


def test_interpolate_function_matches_at_nodes(rng, small_basis):
    itp = build_interpolant(small_basis, SelectionCriterion.CLASSIC, small_basis.n)
    h = rng.standard_normal(small_basis.grid.n_samples) * (1 + 0j)
    out = interpolate_function(itp, h)
    nodes = list(itp.node_indices)
    assert np.max(np.abs(out[nodes] - h[nodes])) <= 1e-10


def test_interpolate_function_exact_on_span(rng, small_basis):
    itp = build_interpolant(small_basis, SelectionCriterion.CLASSIC, 5)
    c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    h = c @ small_basis.basis[:5]
    out = interpolate_function(itp, h)
    assert np.linalg.norm(out - h) <= 1e-9 * np.linalg.norm(h)


def test_interpolation_error_bounded_by_lebesgue(rng, small_basis):
    rb = small_basis
    n = rb.n
    itp = build_interpolant(rb, SelectionCriterion.CLASSIC, n)
    lam = nm.condition_and_inverse_norm(itp.v_matrix)[1]
    for _ in range(10):
        h = rng.standard_normal(rb.grid.n_samples) + 1j * rng.standard_normal(rb.grid.n_samples)
        interp_err = weighted_norm(h - interpolate_function(itp, h), rb.grid.dt)
        proj_err = weighted_norm(h - project(rb.basis, h, n), rb.grid.dt)
        assert interp_err <= lam * proj_err * (1 + 1e-8)


def test_length_mismatches(small_basis):
    itp = build_interpolant(small_basis, SelectionCriterion.CLASSIC, 4)
    with pytest.raises(LengthMismatch):
        interpolate(itp, np.ones(5))
    with pytest.raises(LengthMismatch):
        interpolate_function(itp, np.ones(small_basis.grid.n_samples + 1))


# ---------------------------------------------------------------------------
# Residual / determinant-ratio identity
# ---------------------------------------------------------------------------

def test_two_vector_closed_form(rng):
    rows = orthonormal_rows(rng, 2, 40)
    rb = make_basis(rows)
    itp = build_interpolant(rb, SelectionCriterion.CLASSIC, 2)
    t1 = itp.node_indices[0]
    e1, e2 = rows
    closed_form = (e2 * e1[t1] - e2[t1] * e1) / e1[t1]
    coeff = e2[t1] / e1[t1]
    residual = e2 - coeff * e1
    assert np.max(np.abs(residual - closed_form)) <= 1e-12
    discrepancies = verify_determinant_identity(rb, 2)
    assert discrepancies[0] <= 1e-10


def test_identity_sides_vanish_at_previous_nodes(chirp_basis):
    n = 6
    itp = build_interpolant(chirp_basis, SelectionCriterion.CLASSIC, n)
    rows = chirp_basis.basis
    j = n
    prefix = list(itp.node_indices[: j - 1])
    residual = solve_residual(rows, j, prefix)
    det_prev = nm.determinant(rows[: j - 1][:, prefix].T)
    for t in prefix:
        vj = rows[:j][:, prefix + [t]].T
        assert abs(residual[t]) <= 1e-10
        assert abs(nm.determinant(vj) / det_prev) <= 1e-10


def test_verify_determinant_identity_small(chirp_basis):
    discrepancies = verify_determinant_identity(chirp_basis, 12)
    assert len(discrepancies) == 11
    assert max(discrepancies) <= 1e-7


@settings(max_examples=80, deadline=None)
@given(hard_bases(max_n=12, gradings=(0, 4), spreads=(0,)))
def test_qr_ratios_match_lu_oracle_on_hard_bases(rows):
    # The null-vector route gives each det V_j(t) / det V_{j-1} that one LU
    # per candidate gives, within roundoff relative to the residual's size,
    # and the verifier's discrepancy (the graded rows are not orthonormal,
    # so it is computed here as the verifier does) stays at roundoff.
    n = rows.shape[0]
    nodes, residuals = eim._select_nodes(rows, SelectionCriterion.CLASSIC, n)
    for j in range(2, n + 1):
        ratios = eim._determinant_ratios(rows, j, nodes)
        scale = np.abs(residuals[j - 1]).max()
        assert np.abs(ratios - lu_ratio_scan(rows, j, nodes)).max() <= 1e-12 * scale
        assert np.abs(residuals[j - 1] - ratios).max() <= 1e-13 * scale


def test_verifier_on_grid_points_scaled_over_eight_decades():
    # Grading 0, each grid point scaled by a factor within 10^(+-4): n = 6,
    # L = 14. Cramer's rule, which a cofactor expansion along the appended
    # row is, leaves 5.3e-8 at the last step here; the QR null vector leaves
    # 4.6e-10 and one LU per candidate (``lu_ratio_scan``) 1.2e-10.
    rng = np.random.default_rng(662)
    n = int(rng.integers(2, 13))
    length = int(rng.integers(2 * n, 61))
    near = [0.0, 1e-3, 1e-7, 1e-11][rng.integers(0, 4)]
    rows = graded_rows(rng, n, length, near, grading=0, spread=4)
    assert rows.shape == (6, 14)
    nodes, residuals = eim._select_nodes(rows, SelectionCriterion.CLASSIC, n)
    for j in range(2, n + 1):
        scale = np.abs(residuals[j - 1]).max()
        ratios = eim._determinant_ratios(rows, j, nodes)
        assert np.abs(residuals[j - 1] - ratios).max() <= 1e-8 * scale


def test_qr_ratios_match_laplace_oracle(rng):
    rows = orthonormal_rows(rng, 6, 30)
    nodes, _ = eim._select_nodes(rows, SelectionCriterion.CLASSIC, 6)
    for j in range(2, 7):
        ratios = eim._determinant_ratios(rows, j, nodes)
        det_prev = laplace_det(rows[: j - 1][:, nodes[: j - 1]].T)
        expected = [laplace_det(v) / det_prev for v in candidate_stack(rows, j, nodes)]
        assert np.abs(ratios - expected).max() <= 1e-13


def test_verifier_factors_few_matrices(monkeypatch, chirp_basis):
    # One QR of the chosen nodes' block per step, not one factorization per
    # grid point, and no LU.
    factored = []
    qr = scipy.linalg.qr
    monkeypatch.setattr(scipy.linalg, "qr", lambda a: factored.append(a.shape) or qr(a))
    monkeypatch.setattr(nm, "determinant", None)
    verify_determinant_identity(chirp_basis, chirp_basis.n)
    assert len(factored) == chirp_basis.n - 1


def test_verifier_catches_a_broken_elimination(monkeypatch, chirp_basis):
    # The determinant side never goes through the elimination, so an
    # elimination off by a relative 1e-6 shows as a discrepancy.
    def skewed(x, t, residual):
        x -= (1 - 1e-6) * np.outer(x[:, t] / residual[t], residual)
    monkeypatch.setattr(eim, "_eliminate", skewed)
    assert max(verify_determinant_identity(chirp_basis, chirp_basis.n)) > 1e-7


# ---------------------------------------------------------------------------
# Construction safety and serialization
# ---------------------------------------------------------------------------

def test_constructor_rejects_duplicate_nodes(small_basis):
    itp = build_interpolant(small_basis, SelectionCriterion.CLASSIC, 3)
    with pytest.raises(ValueError):
        EmpiricalInterpolant(
            basis=itp.basis, node_indices=(itp.node_indices[0],) * 3,
            b_matrix=itp.b_matrix,
            residuals=itp.residuals, criterion=itp.criterion, per_step=itp.per_step,
        )


def test_constructor_rejects_broken_cardinals(small_basis):
    itp = build_interpolant(small_basis, SelectionCriterion.CLASSIC, 3)
    with pytest.raises(SingularVMatrix):
        EmpiricalInterpolant(
            basis=itp.basis, node_indices=itp.node_indices, b_matrix=itp.b_matrix * 2.0,
            residuals=itp.residuals, criterion=itp.criterion, per_step=itp.per_step,
        )


def test_constructor_rejects_residuals_of_wrong_shape(small_basis):
    itp = build_interpolant(small_basis, SelectionCriterion.CLASSIC, 3)
    with pytest.raises(ValueError, match="residuals"):
        EmpiricalInterpolant(
            basis=itp.basis, node_indices=itp.node_indices, b_matrix=itp.b_matrix,
            residuals=itp.residuals[:2], criterion=itp.criterion, per_step=itp.per_step,
        )


def test_interpolant_json_round_trip(tmp_path, small_basis):
    itp = build_interpolant(small_basis, SelectionCriterion.MIN_KAPPA, 5)
    path = tmp_path / "itp.json"
    commit({path: interpolant_json(itp, include_matrices=True)})
    doc = json.loads(path.read_text())
    assert doc["criterion"] == "kappa"
    assert doc["node_indices"] == list(itp.node_indices)
    assert len(doc["per_step"]) == 5
    assert doc["per_step"][0]["kappa"] == 1.0
    # Matrices embed as CSV blocks of re:im pairs.
    first_pair = doc["v_matrix_csv"].splitlines()[0].split(",")[0]
    re, im = map(float, first_pair.split(":"))
    assert complex(re, im) == itp.v_matrix[0, 0]
    assert len(doc["b_matrix_csv"].splitlines()) == 5


# ---------------------------------------------------------------------------
# The binary node copy
# ---------------------------------------------------------------------------

DIGEST = "ab" * 32


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("criterion", ALL_CRITERIA)
def test_node_copy_round_trip_is_bitwise(tmp_path, small_basis, criterion):
    itp = build_interpolant(small_basis, criterion, small_basis.n)
    commit({tmp_path / "itp.f64": eim.interpolant_copy(itp, DIGEST)})
    copy = eim.load_interpolant_copy(tmp_path / "itp.f64", small_basis, criterion, DIGEST)
    assert copy.basis is small_basis and copy.criterion is criterion
    assert copy.node_indices == itp.node_indices
    assert copy.per_step == itp.per_step
    assert np.array_equal(_bits(copy.residuals), _bits(itp.residuals))
    assert np.array_equal(_bits(copy.b_matrix), _bits(itp.b_matrix))


def test_node_copy_layout(tmp_path, small_basis):
    itp = build_interpolant(small_basis, SelectionCriterion.MIN_LAMBDA, small_basis.n)
    path = tmp_path / "itp.f64"
    commit({path: eim.interpolant_copy(itp, DIGEST, n_max=9)})
    header, payload = path.read_bytes().split(b"\n", 1)
    n = small_basis.n
    assert header.decode() == (f"emprint-interpolant v1 sha256={DIGEST} "
                               f"code={rbm._code_digest()} tol=1e-12 n_max=9 "
                               f"rule=lambda n={n} l=301")
    steps = np.frombuffer(payload, dtype="<f8").reshape(n, 6)
    assert steps[:, 0].tolist() == list(itp.node_indices)
    for row, rec in zip(steps.tolist(), itp.per_step):
        assert row[1:] == [rec.det_v.real, rec.det_v.imag, rec.kappa, rec.lebesgue,
                           rec.residual_at_node]


def test_node_copy_is_read_only_for_its_key(tmp_path, small_basis):
    itp = build_interpolant(small_basis, SelectionCriterion.MIN_KAPPA, small_basis.n)
    path = tmp_path / "itp.f64"
    commit({path: eim.interpolant_copy(itp, DIGEST)})
    load = eim.load_interpolant_copy
    assert load(path, small_basis, SelectionCriterion.MIN_KAPPA, DIGEST) is not None
    assert load(path, small_basis, SelectionCriterion.MIN_KAPPA, None) is None
    assert load(path, small_basis, SelectionCriterion.MIN_KAPPA, "cd" * 32) is None
    assert load(path, small_basis, SelectionCriterion.MIN_KAPPA, DIGEST, n_max=9) is None
    assert load(path, small_basis, SelectionCriterion.MIN_LAMBDA, DIGEST) is None
    assert load(tmp_path / "missing.f64", small_basis, SelectionCriterion.MIN_KAPPA,
                DIGEST) is None


@pytest.mark.parametrize("node", [-1.0, 301.0, 0.5, math.nan, "repeat"])
def test_node_copy_with_a_bad_node_is_ignored(tmp_path, small_basis, node):
    itp = build_interpolant(small_basis, SelectionCriterion.CLASSIC, small_basis.n)
    path = tmp_path / "itp.f64"
    commit({path: eim.interpolant_copy(itp, DIGEST)})
    header, payload = path.read_bytes().split(b"\n", 1)
    steps = np.frombuffer(payload, dtype="<f8").reshape(-1, 6).copy()
    steps[2, 0] = steps[0, 0] if node == "repeat" else node
    path.write_bytes(header + b"\n" + steps.tobytes())
    assert eim.load_interpolant_copy(path, small_basis, SelectionCriterion.CLASSIC,
                                     DIGEST) is None


def test_node_copy_with_a_zero_pivot_is_ignored(tmp_path):
    rb = make_basis(np.eye(2, 3, dtype=np.complex128))
    itp = build_interpolant(rb, SelectionCriterion.CLASSIC, 2)
    path = tmp_path / "itp.f64"
    commit({path: eim.interpolant_copy(itp, DIGEST)})
    header, payload = path.read_bytes().split(b"\n", 1)
    steps = np.frombuffer(payload, dtype="<f8").reshape(-1, 6).copy()
    steps[1, 0] = 2.0  # r_2 = e_2 vanishes at grid index 2
    path.write_bytes(header + b"\n" + steps.tobytes())
    assert eim.load_interpolant_copy(path, rb, SelectionCriterion.CLASSIC, DIGEST) is None
