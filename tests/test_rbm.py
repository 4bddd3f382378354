import math

import numpy as np
import pytest

from emprint import catalog, rbm
from emprint.catalog import TimeGrid, TrainingSet
from emprint.rbm import (DegenerateResidual, EmptyTraining, ReducedBasis,
                         build_reduced_basis)

from oracles import load_basis_csv, project, projection_error_sq, weighted_norm


def _waveform(rng, grid):
    return rng.standard_normal(grid.n_samples) + 1j * rng.standard_normal(grid.n_samples)


# ---------------------------------------------------------------------------
# Greedy sweep
# ---------------------------------------------------------------------------

def test_rank_one_training_set(rng):
    grid = TimeGrid(0.0, 1.0, 64)
    row = _waveform(rng, grid)
    samples = np.vstack([row, row, row])
    ts = TrainingSet(grid, np.array([[1.0], [2.0], [3.0]]), samples)
    rb = build_reduced_basis(ts, tol=1e-12)
    assert rb.n == 1
    assert rb.greedy_errors[0] <= 1e-28


def test_poly_fourier_saturates_at_ten():
    spec = catalog.make_family_spec("poly_fourier", 200,
                                    grid=TimeGrid(0.0, 1.0, 501))
    ts = catalog.generate_family(spec)
    rb = build_reduced_basis(ts, tol=1e-12)
    assert rb.n == 10
    # Rank oracle: the weighted sample matrix is numerically rank 10.
    sv = np.linalg.svd(ts.samples * math.sqrt(ts.grid.dt), compute_uv=False)
    assert sv[10] / sv[0] <= 1e-12


def test_default_chirp_decays_superalgebraically():
    spec = catalog.make_family_spec("damped_chirp", 101)
    ts = catalog.generate_family(spec)
    rb = build_reduced_basis(ts, tol=1e-10)
    assert rb.n <= 25
    assert rb.greedy_errors[-1] / rb.greedy_errors[0] <= 1e-10


def test_greedy_errors_nonincreasing(small_basis):
    errs = small_basis.greedy_errors
    assert np.all(errs[1:] <= errs[:-1] * (1 + 1e-14) + 1e-28)


def test_orthonormality(chirp_basis):
    gram = chirp_basis.basis @ chirp_basis.basis.conj().T
    off = gram - np.eye(chirp_basis.n)
    assert np.max(np.abs(off)) <= 1e-10


def test_n_max_caps_the_sweep(small_training):
    rb = build_reduced_basis(small_training, tol=1e-30, n_max=3)
    assert rb.n == 3


def test_tol_larger_than_first_error(small_training):
    rb = build_reduced_basis(small_training, tol=1e6)
    assert rb.n == 1


def test_degenerate_training_raises(rng):
    grid = TimeGrid(0.0, 1.0, 32)
    row = _waveform(rng, grid)
    ts = TrainingSet(grid, np.array([[1.0], [2.0]]), np.vstack([row, row]))
    with pytest.raises(DegenerateResidual):
        build_reduced_basis(ts, tol=1e-40)


def test_empty_training_raises(small_training):
    ts = small_training
    hollow = object.__new__(TrainingSet)
    object.__setattr__(hollow, "grid", ts.grid)
    object.__setattr__(hollow, "params", ts.params[:0])
    object.__setattr__(hollow, "samples", ts.samples[:0])
    with pytest.raises(EmptyTraining):
        build_reduced_basis(hollow, tol=1e-12)


def test_greedy_reproduces_training(chirp_training, chirp_basis):
    rb = chirp_basis
    for row in chirp_training.samples:
        err = projection_error_sq(rb.basis, row, rb.n, rb.grid.dt)
        assert err <= max(rb.tol, 1e-24)


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def test_project_idempotent_on_basis(small_basis):
    e1 = small_basis.basis[0]
    out = project(small_basis.basis, e1, 1)
    assert np.max(np.abs(out - e1)) <= 1e-13


def test_project_annihilates_orthogonal_vectors(rng, small_basis):
    g = small_basis.grid
    h = _waveform(rng, g)
    # Remove every basis component, leaving a vector orthogonal to the span.
    h = h - (small_basis.basis.conj() @ h) @ small_basis.basis
    out = project(small_basis.basis, h, small_basis.n)
    assert np.max(np.abs(out)) <= 1e-13 * np.max(np.abs(h))


def test_projection_error_monotone_in_n(rng, small_basis):
    h = _waveform(rng, small_basis.grid)
    errs = [projection_error_sq(small_basis.basis, h, n, small_basis.grid.dt)
            for n in range(1, small_basis.n + 1)]
    assert all(b <= a * (1 + 1e-12) + 1e-28 for a, b in zip(errs, errs[1:]))


def test_projection_error_in_span(small_basis, rng):
    c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    h = c @ small_basis.basis[:3]
    assert projection_error_sq(small_basis.basis, h, 3, small_basis.grid.dt) <= 1e-26


def test_projection_error_pythagoras(small_basis):
    # A weighted-unit vector outside the truncated span keeps error 1.
    n = small_basis.n - 1
    h = small_basis.basis[n] / math.sqrt(small_basis.grid.dt)
    err = projection_error_sq(small_basis.basis, h, n, small_basis.grid.dt)
    assert err == pytest.approx(1.0, rel=1e-12)


def test_projection_error_parseval(rng, small_basis):
    rb = small_basis
    h = _waveform(rng, rb.grid)
    n = 4
    direct = projection_error_sq(rb.basis, h, n, rb.grid.dt)
    coeff = rb.basis[:n].conj() @ h
    parseval = (weighted_norm(h, rb.grid.dt) ** 2
                - float(np.sum(np.abs(coeff) ** 2)) * rb.grid.dt)
    assert direct == pytest.approx(parseval, rel=1e-12)


def test_projection_is_least_squares_optimal(rng, small_basis):
    rb = small_basis
    h = _waveform(rng, rb.grid)
    n = 5
    best = weighted_norm(h - project(rb.basis, h, n), rb.grid.dt)
    for _ in range(25):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        other = weighted_norm(h - c @ rb.basis[:n], rb.grid.dt)
        assert best <= other * (1 + 1e-12)


def test_weighted_euclidean_bridge(rng, small_basis):
    rb = small_basis
    h = _waveform(rng, rb.grid)
    p = project(rb.basis, h, rb.n)
    weighted = weighted_norm(p, rb.grid.dt)
    euclidean = float(np.linalg.norm(p)) * math.sqrt(rb.grid.dt)
    assert weighted == pytest.approx(euclidean, rel=1e-12)


def test_constructor_rejects_non_orthonormal(small_basis):
    bad = small_basis.basis.copy()
    bad[1] = bad[0]
    with pytest.raises(ValueError):
        ReducedBasis(small_basis.grid, bad, small_basis.greedy_errors,
                     small_basis.greedy_params, small_basis.tol)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_basis_csv_round_trip(tmp_path, small_basis):
    path = tmp_path / "basis.csv"
    rbm.save_basis_csv(small_basis, path)
    grid, rows = load_basis_csv(path)
    assert grid == small_basis.grid
    assert np.array_equal(rows, small_basis.basis)


def test_greedy_errors_csv(tmp_path, small_basis):
    path = tmp_path / "errs.csv"
    rbm.save_greedy_errors_csv(small_basis, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,sigma_sq"
    assert len(lines) == small_basis.n + 1
    n, err = lines[1].split(",")
    assert int(n) == 1
    assert float(err) == small_basis.greedy_errors[0]
