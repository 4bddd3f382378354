import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from emprint import eim
from emprint import numerics as nm
from emprint.catalog import LengthMismatch, TimeGrid
from emprint.eim import (TIE_REL_TOL, EmpiricalInterpolant, SelectionCriterion,
                         SingularVMatrix, build_interpolant, interpolate,
                         interpolate_function, save_interpolant_json,
                         verify_determinant_identity)
from emprint.rbm import ReducedBasis

from oracles import (candidate_stack, full_scan, laplace_det, lu_ratio_scan,
                     orthonormal_rows, project, solve_residual, weighted_norm)

ALL_CRITERIA = list(SelectionCriterion)
OBJECTIVES = {SelectionCriterion.MIN_KAPPA: nm.condition_number_2,
              SelectionCriterion.MIN_LAMBDA: nm.inverse_two_norm}


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
@pytest.mark.parametrize("criterion,objective", [
    (SelectionCriterion.MIN_KAPPA, nm.condition_number_2),
    (SelectionCriterion.MIN_LAMBDA, nm.inverse_two_norm),
], ids=["kappa", "lambda"])
def test_variant_steps_are_optimal(request, basis_name, criterion, objective):
    # small_basis (L = 301) fits one candidate stack, chirp_basis (L = 1001)
    # spans four; the reference scores one candidate matrix at a time.
    basis = request.getfixturevalue(basis_name)
    n = basis.n
    itp = build_interpolant(basis, criterion, n)
    rows = basis.basis
    n_grid = rows.shape[1]
    for j in range(2, n + 1):
        prefix = list(itp.node_indices[: j - 1])
        chosen_value = objective(rows[:j][:, prefix + [itp.node_indices[j - 1]]].T)
        vj = np.empty((j, j), dtype=complex)
        vj[: j - 1] = rows[:j][:, prefix].T
        for t in range(n_grid):
            if t in prefix:
                continue
            vj[j - 1] = rows[:j, t]
            assert chosen_value <= objective(vj) * (1 + 1e-9)


@pytest.mark.parametrize("variant", [False, True], ids=["default", "first-node-variant"])
@pytest.mark.parametrize("criterion", ALL_CRITERIA)
def test_exact_ties_resolve_to_lower_index(rng, criterion, variant):
    # Every grid column appears twice, at t and t + 300, so every candidate
    # matrix has an identical twin in another candidate stack; every pick,
    # the first node included, must be the lower copy.
    m = 300
    base = orthonormal_rows(rng, 6, m)
    rb = make_basis(np.hstack([base, base]) / np.sqrt(2))
    itp = build_interpolant(rb, criterion, 6, first_node_variant=variant)
    assert all(t < m for t in itp.node_indices)


def assert_picks_match_full_scan(rows, criterion, first_node_variant):
    """Each pick of the pruned scan is the full scan's pick after the same
    prefix, and that pick survives the pruning against the classic pick."""
    objective = OBJECTIVES[criterion]
    nodes, _ = eim._select_nodes(rows, criterion, rows.shape[0], first_node_variant)
    if first_node_variant:
        assert nodes[0] == full_scan(rows, 1, [], objective, TIE_REL_TOL)
    for j in range(2, rows.shape[0] + 1):
        prefix = nodes[: j - 1]
        reference = full_scan(rows, j, prefix, objective, TIE_REL_TOL)
        assert nodes[j - 1] == reference
        incumbent = eim._argmax_tied(np.abs(solve_residual(rows, j, prefix)))
        best = objective(rows[:j][:, prefix + [incumbent]].T)
        assert reference in eim._survivors(rows, j, prefix, criterion, best)


@pytest.mark.parametrize("variant", [False, True], ids=["default", "first-node-variant"])
@pytest.mark.parametrize("criterion", list(OBJECTIVES), ids=["kappa", "lambda"])
@pytest.mark.parametrize("basis_name", ["small_basis", "chirp_basis"])
def test_pruned_scan_matches_full_scan(request, basis_name, criterion, variant):
    basis = request.getfixturevalue(basis_name)
    assert_picks_match_full_scan(basis.basis, criterion, variant)


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
@given(hard_bases(), st.sampled_from(list(OBJECTIVES)), st.booleans())
def test_pruned_scan_matches_full_scan_on_hard_bases(rows, criterion, variant):
    assert_picks_match_full_scan(rows, criterion, variant)


@settings(max_examples=80, deadline=None)
@given(hard_bases())
def test_elimination_matches_solve_oracle_on_hard_bases(rows):
    # Each residual of the elimination is the solve-route residual after the
    # same prefix, within roundoff amplified by kappa(V_{j-1}), and each
    # classic pick is the oracle's.
    n = rows.shape[0]
    nodes, residuals = eim._select_nodes(rows, SelectionCriterion.CLASSIC, n, False)
    eps = np.finfo(np.float64).eps
    for j in range(1, n + 1):
        reference = solve_residual(rows, j, nodes)
        kappa = nm.condition_number_2(rows[: j - 1][:, nodes[: j - 1]].T) if j > 1 else 1.0
        bound = 32 * j * eps * kappa * np.abs(rows[:j]).max()
        assert np.abs(residuals[j - 1] - reference).max() <= bound
        assert nodes[j - 1] == eim._argmax_tied(np.abs(reference))


@pytest.mark.parametrize("criterion", list(OBJECTIVES), ids=["kappa", "lambda"])
def test_scan_scores_few_candidates(monkeypatch, chirp_basis, criterion):
    # A full scan scores sum_{j=2..n} (L - j + 1) candidate matrices; the
    # pruned scan passes under a tenth of that to the stacked objective.
    scored = []
    for name in ("condition_number_2", "inverse_two_norm"):
        fn = getattr(nm, name)
        monkeypatch.setattr(nm, name, lambda m, fn=fn: (
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


def test_first_node_variant_flag(small_basis):
    # kappa of any 1x1 matrix is 1, so the variant rule degenerates to the
    # lowest grid index with a nonzero first-row sample.
    itp = build_interpolant(small_basis, SelectionCriterion.MIN_KAPPA, 2,
                            first_node_variant=True)
    moduli = np.abs(small_basis.basis[0])
    assert itp.node_indices[0] == int(np.flatnonzero(moduli > 0)[0])
    # The lambda objective 1/|e_1(t)| reproduces the default rule.
    default = build_interpolant(small_basis, SelectionCriterion.MIN_LAMBDA, 2)
    variant = build_interpolant(small_basis, SelectionCriterion.MIN_LAMBDA, 2,
                                first_node_variant=True)
    assert default.node_indices == variant.node_indices


def test_build_rejects_bad_order(small_basis):
    with pytest.raises(ValueError):
        build_interpolant(small_basis, SelectionCriterion.CLASSIC, 0)
    with pytest.raises(ValueError):
        build_interpolant(small_basis, SelectionCriterion.CLASSIC, small_basis.n + 1)


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
    lam = nm.inverse_two_norm(itp.v_matrix)
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
    nodes, residuals = eim._select_nodes(rows, SelectionCriterion.CLASSIC, n, False)
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
    nodes, residuals = eim._select_nodes(rows, SelectionCriterion.CLASSIC, n, False)
    for j in range(2, n + 1):
        scale = np.abs(residuals[j - 1]).max()
        ratios = eim._determinant_ratios(rows, j, nodes)
        assert np.abs(residuals[j - 1] - ratios).max() <= 1e-8 * scale


def test_qr_ratios_match_laplace_oracle(rng):
    rows = orthonormal_rows(rng, 6, 30)
    nodes, _ = eim._select_nodes(rows, SelectionCriterion.CLASSIC, 6, False)
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
            basis=itp.basis, n=3,
            node_indices=(itp.node_indices[0],) * 3,
            v_matrix=itp.v_matrix, b_matrix=itp.b_matrix,
            residuals=itp.residuals, criterion=itp.criterion, per_step=itp.per_step,
        )


def test_constructor_rejects_broken_cardinals(small_basis):
    itp = build_interpolant(small_basis, SelectionCriterion.CLASSIC, 3)
    with pytest.raises(SingularVMatrix):
        EmpiricalInterpolant(
            basis=itp.basis, n=3, node_indices=itp.node_indices,
            v_matrix=itp.v_matrix, b_matrix=itp.b_matrix * 2.0,
            residuals=itp.residuals, criterion=itp.criterion, per_step=itp.per_step,
        )


def test_constructor_rejects_residuals_of_wrong_shape(small_basis):
    itp = build_interpolant(small_basis, SelectionCriterion.CLASSIC, 3)
    with pytest.raises(ValueError, match="residuals"):
        EmpiricalInterpolant(
            basis=itp.basis, n=3, node_indices=itp.node_indices,
            v_matrix=itp.v_matrix, b_matrix=itp.b_matrix,
            residuals=itp.residuals[:2], criterion=itp.criterion, per_step=itp.per_step,
        )


def test_interpolant_json_round_trip(tmp_path, small_basis):
    itp = build_interpolant(small_basis, SelectionCriterion.MIN_KAPPA, 5)
    path = tmp_path / "itp.json"
    save_interpolant_json(itp, path, include_matrices=True)
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
