import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from emprint import catalog, rbm
from emprint._fileio import commit
from emprint.catalog import InvalidRange, TimeGrid, TrainingSet
from emprint.numerics import argmax_tied
from emprint.rbm import DegenerateResidual, ReducedBasis, build_reduced_basis

from oracles import load_basis_csv, project, projection_error_sq, weighted_norm

# The helper's size gate, read before the ``writers`` fixture lowers it.
HELPER_CELLS = catalog._HELPER_CELLS


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


@pytest.mark.parametrize("kwargs", [
    {"n_max": 0}, {"n_max": -1}, {"tol": math.nan}, {"tol": 0.0}, {"tol": -1.0},
], ids=["n_max-0", "n_max-negative", "tol-nan", "tol-0", "tol-negative"])
def test_bad_tol_or_cap_raises_invalid_range(small_training, kwargs):
    # A NaN tol would sweep on until the residual reached roundoff.
    with pytest.raises(InvalidRange, match=next(iter(kwargs))):
        build_reduced_basis(small_training, **kwargs)


def test_degenerate_training_raises(rng):
    grid = TimeGrid(0.0, 1.0, 32)
    row = _waveform(rng, grid)
    ts = TrainingSet(grid, np.array([[1.0], [2.0]]), np.vstack([row, row]))
    with pytest.raises(DegenerateResidual):
        build_reduced_basis(ts, tol=1e-40)


def test_all_zero_training_raises_at_the_seed():
    # The seed is the sweep's first pick and passes the same roundoff test:
    # a largest waveform of zero norm is degenerate at step 1.
    grid = TimeGrid(0.0, 1.0, 5)
    ts = TrainingSet(grid, np.array([[1.0], [2.0], [3.0]]), np.zeros((3, 5)))
    with pytest.raises(DegenerateResidual, match="step 1 is at roundoff level"):
        build_reduced_basis(ts, tol=1e-12)


def test_seed_is_the_row_of_largest_norm(small_training, small_basis):
    norms_sq = np.sum(np.abs(small_training.samples) ** 2, axis=1)
    assert small_basis.greedy_params[0] == argmax_tied(norms_sq)


@pytest.mark.parametrize("order", ["h-first", "mirror-first"])
def test_mirrored_twins_seed_the_lower_row(order):
    # h(t) and conj(h(1 - t)) on a grid symmetric about its midpoint have
    # equal norms in exact arithmetic; the computed sums differ in the last
    # bits. The tie rule, not roundoff, must choose: the lower row index,
    # whichever twin sits there.
    def h(t):
        return (1.0 + t) * np.exp(40j * t * t)

    grid = TimeGrid(0.0, 1.0, 201)
    rows = [h(grid.points), np.conj(h(1.0 - grid.points))]
    if order == "mirror-first":
        rows.reverse()
    ts = TrainingSet(grid, np.array([[1.0], [2.0]]), np.vstack(rows))
    assert build_reduced_basis(ts).greedy_params[0] == 0


def test_sweep_makes_no_copy_of_the_training_set_beyond_its_residual():
    # packet-2d sized data (K=900, L=201). The residual is one K x L copy of
    # the samples; the norms and the rank-1 update must not allocate another.
    spec = catalog.make_family_spec("gaussian_packet", 900,
                                    grid=TimeGrid(0.0, 1.0, 201),
                                    param_range=((0.25, 0.75), (0.05, 0.2)))
    ts = catalog.generate_family(spec)
    tracemalloc.start()
    try:
        build_reduced_basis(ts, tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * ts.samples.nbytes


def test_empty_training_set_is_rejected(small_training):
    ts = small_training
    with pytest.raises(ValueError, match="at least one waveform"):
        TrainingSet(ts.grid, ts.params[:0], ts.samples[:0])


def test_greedy_reproduces_training(chirp_training, chirp_basis):
    rb = chirp_basis
    for row in chirp_training.samples:
        err = projection_error_sq(rb.basis, row, rb.n, rb.grid.dt)
        assert err <= max(rb.tol, 1e-24)


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def test_built_basis_spans_its_greedy_picks(small_training, small_basis):
    # The package-built rows are orthonormal. After m of them, the largest
    # weighted projection error over the training set is the recorded greedy
    # error m, and the training row picked at step m is reproduced to the
    # greedy tolerance.
    rb = small_basis
    assert np.max(np.abs(rb.basis @ rb.basis.conj().T - np.eye(rb.n))) <= 1e-12
    for m, k in enumerate(rb.greedy_params, start=1):
        errs = [projection_error_sq(rb.basis, row, m, rb.grid.dt)
                for row in small_training.samples]
        assert max(errs) == pytest.approx(rb.greedy_errors[m - 1], rel=1e-8, abs=0.0)
        assert errs[k] <= rb.tol


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


def test_constructor_rejects_non_orthonormal(small_basis):
    bad = small_basis.basis.copy()
    bad[1] = bad[0]
    with pytest.raises(ValueError):
        ReducedBasis(small_basis.grid, bad, small_basis.greedy_errors,
                     small_basis.greedy_params, small_basis.tol)


def test_constructor_rejects_nan_basis():
    with pytest.raises(ValueError, match="orthonormal"):
        ReducedBasis(TimeGrid(0.0, 1.0, 5), np.full((2, 5), math.nan),
                     [math.nan, math.nan], (0, 1), 1e-12)


@pytest.mark.parametrize("errors", [[math.nan, 0.5], [0.5, math.nan], [math.nan]])
def test_constructor_rejects_nan_greedy_errors(errors):
    rows = np.eye(5)[:len(errors)]
    with pytest.raises(ValueError, match="finite and nonincreasing"):
        ReducedBasis(TimeGrid(0.0, 1.0, 5), rows, errors, tuple(range(len(errors))), 1e-12)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_basis_csv_round_trip(tmp_path, small_basis):
    path = tmp_path / "basis.csv"
    commit({path: rbm.basis_csv(small_basis)})
    grid, rows = load_basis_csv(path)
    assert grid == small_basis.grid
    assert np.array_equal(rows, small_basis.basis)


def test_basis_csv_with_a_helper_holds_its_text_at_most_twice(tmp_path, chirp_basis, writers):
    # The rows formatted here and the helper's chunks, never joined, beside
    # the write's buffer. Each row here is 10 ms late, so that the helper
    # writes some of them.
    writers.delay = 0.01
    path = tmp_path / "basis.csv"
    tracemalloc.start()
    try:
        commit({path: rbm.basis_csv(chirp_basis)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert writers.helper > 0 and writers.here + writers.helper == chirp_basis.n
    assert peak <= 2.1 * path.stat().st_size


def test_a_small_basis_starts_no_helper_and_a_training_set_does(tmp_path, writers,
                                                               monkeypatch):
    # packet-2d's basis: 29 rows of 201 samples, 5,829 cells, under the gate.
    spec = catalog.make_family_spec("gaussian_packet", 900, grid=TimeGrid(0.0, 1.0, 201),
                                    param_range=((0.25, 0.75), (0.05, 0.2)))
    ts = catalog.generate_family(spec)
    rb = build_reduced_basis(ts, tol=1e-10)
    monkeypatch.setattr(catalog, "_HELPER_CELLS", HELPER_CELLS)
    commit({tmp_path / "basis.csv": rbm.basis_csv(rb)})
    assert rb.n == 29 and writers.started == 0
    catalog.save_training_csv(ts, tmp_path / "training.csv")
    assert writers.started == 1


def test_greedy_errors_csv(tmp_path, small_basis):
    path = tmp_path / "errs.csv"
    commit({path: rbm.greedy_errors_csv(small_basis)})
    lines = path.read_text().splitlines()
    assert lines[0] == "n,sigma_sq"
    assert len(lines) == small_basis.n + 1
    n, err = lines[1].split(",")
    assert int(n) == 1
    assert float(err) == small_basis.greedy_errors[0]


# ---------------------------------------------------------------------------
# The binary basis copy
# ---------------------------------------------------------------------------

def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.fixture
def saved_small(tmp_path, small_training):
    """The small training set as loaded from its CSV, which gives it a digest."""
    catalog.save_training_csv(small_training, tmp_path / "training.csv")
    return catalog.load_training_csv(tmp_path / "training.csv")


def test_basis_copy_round_trip_is_bitwise(tmp_path, saved_small):
    rb = build_reduced_basis(saved_small, tol=1e-12)
    commit({tmp_path / "basis.f64": rbm.basis_copy(rb, saved_small.csv_sha256)})
    copy = rbm.load_basis_copy(tmp_path / "basis.f64", saved_small, 1e-12)
    assert copy.grid == rb.grid and copy.tol == rb.tol
    assert copy.greedy_params == rb.greedy_params
    assert np.array_equal(_bits(copy.greedy_errors), _bits(rb.greedy_errors))
    assert np.array_equal(_bits(copy.basis), _bits(rb.basis))


def test_basis_copy_layout(tmp_path, saved_small):
    rb = build_reduced_basis(saved_small, tol=1e-12, n_max=3)
    path = tmp_path / "basis.f64"
    commit({path: rbm.basis_copy(rb, saved_small.csv_sha256, n_max=3)})
    header, payload = path.read_bytes().split(b"\n", 1)
    assert header.decode() == (f"emprint-basis v1 sha256={saved_small.csv_sha256} "
                               f"code={rbm._code_digest()} tol=1e-12 n_max=3 n=3 l=301")
    values = np.frombuffer(payload, dtype="<f8")
    assert values.size == 3 * (2 + 2 * 301)
    assert np.array_equal(values[:3], rb.greedy_errors)
    assert values[3:6].tolist() == list(rb.greedy_params)
    assert np.array_equal(values[6:].view(np.complex128).reshape(3, 301), rb.basis)


def test_code_digest_names_the_sweep_sources_and_library_versions(monkeypatch):
    import scipy.linalg

    digest = rbm._code_digest.__wrapped__  # uncached
    base = digest()
    assert rbm._code_digest() == base
    read_bytes = Path.read_bytes
    for name in ("rbm.py", "numerics.py", "eim.py"):
        with monkeypatch.context() as m:
            m.setattr(Path, "read_bytes", lambda self, name=name: read_bytes(self)
                      + (b"#" if self.name == name else b""))
            assert digest() != base, name
    # The BLAS arithmetic: a last-bit change in one routine's result moves it.
    svd, qr, zgeru = np.linalg.svd, scipy.linalg.qr, rbm.zgeru
    for owner, attr, nudged in (
            (np.linalg, "svd", lambda *a, **k: svd(*a, **k) * (1 + 2 ** -52)),
            (scipy.linalg, "qr", lambda *a, **k: [-x for x in qr(*a, **k)]),
            (rbm, "zgeru", lambda *a, **k: zgeru(*a, **k) * (1 + 2 ** -52)),
            (np, "__version__", "0.0"), (scipy, "__version__", "0.0")):
        with monkeypatch.context() as m:
            m.setattr(owner, attr, nudged)
            assert digest() != base, attr
    assert digest() == base


def test_basis_copy_needs_a_training_digest(tmp_path, small_training, saved_small):
    rb = build_reduced_basis(saved_small, tol=1e-12)
    commit({tmp_path / "basis.f64": rbm.basis_copy(rb, saved_small.csv_sha256)})
    # A set built in memory has no digest to key the copy with.
    assert small_training.csv_sha256 is None
    assert rbm.load_basis_copy(tmp_path / "basis.f64", small_training, 1e-12) is None
    assert rbm.load_basis_copy(tmp_path / "missing.f64", saved_small, 1e-12) is None


@pytest.mark.parametrize("pick", [-1.0, 41.0, 0.5, math.nan, "repeat"])
def test_basis_copy_with_a_pick_outside_the_training_rows_is_ignored(
        tmp_path, saved_small, pick):
    rb = build_reduced_basis(saved_small, tol=1e-12)
    path = tmp_path / "basis.f64"
    commit({path: rbm.basis_copy(rb, saved_small.csv_sha256)})
    header, payload = path.read_bytes().split(b"\n", 1)
    values = np.frombuffer(payload, dtype="<f8").copy()
    values[rb.n + 1] = values[rb.n] if pick == "repeat" else pick
    path.write_bytes(header + b"\n" + values.tobytes())
    assert rbm.load_basis_copy(path, saved_small, 1e-12) is None
