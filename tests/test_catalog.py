import hashlib
import math
import os
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from emprint import catalog
from emprint._fileio import commit
from emprint.catalog import (InvalidRange, LengthMismatch, NonFiniteSample,
                             ParseError, TimeGrid, TrainingSet, UnknownFamily)

from oracles import first_repeat, load_basis_csv

GRID11 = TimeGrid(0.0, 1.0, 11)


# ---------------------------------------------------------------------------
# Grids and training sets
# ---------------------------------------------------------------------------

def test_grid_spacing_and_points():
    g = TimeGrid(0.0, 1.0, 11)
    assert g.dt == pytest.approx(0.1)
    assert g.points[0] == 0.0 and g.points[-1] == 1.0
    assert np.allclose(np.diff(g.points), 0.1)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(2.0, 1.0, 10)


@pytest.mark.parametrize("t_start, t_end", [
    (-math.inf, math.inf), (0.0, math.inf), (-1e308, 1e308), (0.0, 5e-324),
], ids=["infinite", "infinite-end", "spacing-overflows", "spacing-underflows"])
def test_grid_needs_finite_endpoints_and_spacing(t_start, t_end):
    with pytest.raises(ValueError):
        TimeGrid(t_start, t_end, 3)


def test_training_set_rejects_duplicate_params():
    samples = np.ones((2, 11), dtype=complex)
    with pytest.raises(ValueError):
        TrainingSet(GRID11, np.array([[1.0], [1.0]]), samples)


def test_training_set_rejects_nonfinite():
    samples = np.ones((1, 11), dtype=complex)
    samples[0, 3] = np.nan
    with pytest.raises(NonFiniteSample):
        TrainingSet(GRID11, np.array([[1.0]]), samples)


def test_training_set_rejects_wrong_length():
    with pytest.raises(LengthMismatch):
        TrainingSet(GRID11, np.array([[1.0]]), np.ones((1, 7), dtype=complex))


# ---------------------------------------------------------------------------
# Synthetic families
# ---------------------------------------------------------------------------

def test_damped_chirp_at_origin_is_one():
    spec = catalog.make_family_spec("damped_chirp", 3, grid=TimeGrid(0.0, 1.0, 5))
    ts = catalog.generate_family(spec)
    assert ts.params[0, 0] == 1.0
    assert ts.samples[0, 0] == 1.0 + 0.0j


def test_gaussian_packet_envelope_peak():
    # lambda_1 = 0.5 lands exactly on the middle grid point.
    spec = catalog.make_family_spec(
        "gaussian_packet", 1, grid=TimeGrid(0.0, 1.0, 5),
        param_range=((0.5, 0.6), (0.1, 0.2)),
    )
    ts = catalog.generate_family(spec)
    assert ts.params[0, 0] == 0.5
    assert abs(ts.samples[0, 2]) == pytest.approx(1.0, abs=1e-15)


def test_poly_fourier_sample_matrix_has_rank_ten():
    spec = catalog.make_family_spec("poly_fourier", 200,
                                    grid=TimeGrid(0.0, 1.0, 501))
    ts = catalog.generate_family(spec)
    weighted = ts.samples * math.sqrt(ts.grid.dt)
    sv = np.linalg.svd(weighted, compute_uv=False)
    assert sv[10] / sv[0] <= 1e-12
    assert sv[9] / sv[0] > 1e-12


def test_generate_family_is_deterministic():
    spec = catalog.make_family_spec("damped_chirp", 17)
    a = catalog.generate_family(spec)
    b = catalog.generate_family(spec)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.params, b.params)


# One set per family, each K not a multiple of the three-row block below.
BLOCK_SPECS = [("damped_chirp", 23, 201), ("gaussian_packet", 25, 101), ("poly_fourier", 19, 151)]


@pytest.mark.parametrize("family, k, l", BLOCK_SPECS)
def test_the_row_block_size_does_not_change_a_sample(monkeypatch, family, k, l):
    spec = catalog.make_family_spec(family, k, grid=TimeGrid(0.0, 1.0, l))
    whole = catalog.generate_family(spec).samples.tobytes()
    for cells in (l, 3 * l, k * l + 1):  # one row; three rows; more than K x L
        monkeypatch.setattr(catalog, "_BLOCK_CELLS", cells)
        assert catalog.generate_family(spec).samples.tobytes() == whole


def test_generate_holds_the_samples_about_once():
    # The samples, allocated once, and the formula's temporaries of one row
    # block. Peak 2.00x the samples when the formula ran on all rows at once.
    spec = catalog.make_family_spec("damped_chirp", 200, grid=TimeGrid(0.0, 1.0, 2001))
    tracemalloc.start()
    try:
        ts = catalog.generate_family(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * ts.samples.nbytes


def test_random_sampling_respects_seed():
    kw = dict(grid=TimeGrid(0.0, 1.0, 11), sampling="random")
    a = catalog.generate_family(catalog.make_family_spec("damped_chirp", 9, seed=3, **kw))
    b = catalog.generate_family(catalog.make_family_spec("damped_chirp", 9, seed=3, **kw))
    c = catalog.generate_family(catalog.make_family_spec("damped_chirp", 9, seed=4, **kw))
    assert np.array_equal(a.params, b.params)
    assert not np.array_equal(a.params, c.params)
    assert np.all(a.params >= 1.0) and np.all(a.params <= 5.0)


def test_tensor_grid_for_two_parameters():
    spec = catalog.make_family_spec("gaussian_packet", 9, grid=TimeGrid(0.0, 1.0, 21))
    ts = catalog.generate_family(spec)
    # 9 = 3^2 points: exact tensor grid, first dimension slowest.
    assert ts.params.shape == (9, 2)
    assert ts.params[0] == pytest.approx([0.25, 0.05])
    assert ts.params[1] == pytest.approx([0.25, 0.125])
    assert ts.params[3] == pytest.approx([0.5, 0.05])
    # Non-square counts keep the first K rows of the next tensor grid.
    spec10 = catalog.make_family_spec("gaussian_packet", 10, grid=TimeGrid(0.0, 1.0, 21))
    ts10 = catalog.generate_family(spec10)
    assert ts10.params.shape == (10, 2)
    assert np.unique(ts10.params, axis=0).shape[0] == 10


def test_unknown_family_and_bad_range():
    with pytest.raises(UnknownFamily):
        catalog.make_family_spec("nope", 5)
    with pytest.raises(InvalidRange):
        catalog.make_family_spec("damped_chirp", 5, param_range=((5.0, 1.0),))
    with pytest.raises(InvalidRange):
        catalog.make_family_spec("gaussian_packet", 5, param_range=((0.0, 1.0),))


@pytest.mark.parametrize("field, message", [
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"sampling": "sobol"}, "'sobol'; known: equispaced, random"),
    ({"n_params": 0}, "n_params must be >= 1, got 0"),
], ids=["negative-seed", "unknown-sampling", "no-params"])
def test_bad_family_spec_raises_invalid_range(field, message):
    spec = {"family": "damped_chirp", "param_range": ((1.0, 5.0),), "n_params": 5, **field}
    with pytest.raises(InvalidRange, match=message):
        catalog.FamilySpec(**spec)


def test_family_spec_checks_family_and_range_count_at_construction():
    # The checks live in FamilySpec itself, so a spec built directly is
    # refused before it can reach generate_family.
    with pytest.raises(UnknownFamily, match="nope"):
        catalog.FamilySpec("nope", ((0.0, 1.0),), 5)
    with pytest.raises(InvalidRange, match="takes 2 parameter range"):
        catalog.FamilySpec("gaussian_packet", ((0.0, 1.0),), 5)


# ---------------------------------------------------------------------------
# CSV round trip and error paths
# ---------------------------------------------------------------------------

# Every finite double, subnormals and both zeros included.
finite = st.floats(allow_nan=False, allow_infinity=False)


def bits(a: np.ndarray) -> np.ndarray:
    # array_equal would take -0.0 for 0.0; the bit patterns tell them apart.
    return np.ascontiguousarray(a).view(np.uint64)


def copy_of(path):
    return path.with_name(path.name + ".f64")


def load_from_copy(path):
    """load_training_csv with the CSV parse disabled: only the copy can serve."""
    with mock.patch.object(catalog, "read_waveform_csv",
                           side_effect=AssertionError("the CSV was parsed")):
        return catalog.load_training_csv(path)


def load_from_csv(path):
    """load_training_csv after deleting the parsed copy."""
    copy_of(path).unlink(missing_ok=True)
    return catalog.load_training_csv(path)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), d=st.integers(1, 2), k=st.integers(1, 4),
       l=st.integers(2, 6))
def test_csv_round_trip_bitwise(tmp_path, data, d, k, l):
    grid = TimeGrid(-0.5, 2.0, l)
    # Rows must differ in their parameters; a unique first column suffices.
    first = data.draw(hnp.arrays(np.float64, k, elements=finite, unique=True))
    rest = data.draw(hnp.arrays(np.float64, (k, d - 1), elements=finite))
    params = np.column_stack([first, rest])
    samples = data.draw(hnp.arrays(np.float64, (k, 2 * l), elements=finite))
    ts = TrainingSet(grid, params, samples.view(np.complex128))
    path = tmp_path / "t.csv"
    catalog.save_training_csv(ts, path)
    copy = copy_of(path).read_bytes()
    # Once through the parsed copy as saved, once through the CSV parse.
    for load in (load_from_copy, load_from_csv):
        loaded = load(path)
        assert np.array_equal(bits(loaded.samples), bits(ts.samples))
        assert np.array_equal(bits(loaded.params), bits(ts.params))
        assert loaded.grid == ts.grid
        assert loaded.csv_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        # Saving the loaded set reproduces both files byte for byte.
        path2 = tmp_path / "t2.csv"
        catalog.save_training_csv(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()
        assert copy_of(path2).read_bytes() == copy


def test_save_holds_at_most_one_point_two_times_the_csv(tmp_path, chirp_training):
    # The encoded rows, never joined, and the write's buffer; the parsed
    # copy is written from row views of the set's arrays. Peak 1.40x the CSV
    # size when the copy's doubles (0.39x the CSV here) were joined first,
    # 2.00x when the rows were joined before the write too, 3.00x when
    # their str join and its encoding were held at once as well.
    path = tmp_path / "training.csv"
    tracemalloc.start()
    try:
        catalog.save_training_csv(chirp_training, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chirp_training.csv_sha256 is None
    assert peak <= 1.2 * path.stat().st_size


# Doubles whose shortest form is an edge of repr: both zeros' signs, the
# smallest subnormal and others, the extremes, where repr switches to an
# exponent (1e16) or prints an exact power of ten (1e22), and the double after 1.
EDGE = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308,
        1.7976931348623157e308, 1e16, 1e22, 9007199254740993.0, float(np.nextafter(1, 2))]
edge_or_finite = st.one_of(st.sampled_from(EDGE), finite)


def reset(writers):
    writers.here = writers.helper = writers.refused = writers.started = 0


def pump_after(lines):
    """``_Helper.pump`` that first waits, up to 30 s, until the helper has
    written ``lines`` lines."""
    pump = catalog._Helper.pump

    def wait(self):
        deadline = time.monotonic() + 30
        while pump(self) < lines and self.proc is not None and time.monotonic() < deadline:
            time.sleep(0.001)
        return self.lines
    return wait


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), d=st.sampled_from([0, 1, 2]), k=st.sampled_from([1, 2, 3, 7]),
       l=st.integers(2, 5))
def test_split_and_serial_writes_give_the_same_bytes(tmp_path, writers, data, d, k, l):
    # d = 0 are basis rows (waveform_csv), d >= 1 a training set. This
    # process first waits until the helper has written ``wait`` lines, so
    # the two sides meet anywhere from the top row to the bottom one.
    first = data.draw(hnp.arrays(np.float64, k, elements=edge_or_finite, unique=True))
    rest = data.draw(hnp.arrays(np.float64, (k, max(d - 1, 0)), elements=edge_or_finite))
    params = np.column_stack([first, rest])[:, :d]
    samples = data.draw(hnp.arrays(np.float64, (k, 2 * l), elements=edge_or_finite))
    samples = samples.view(np.complex128)
    wait = data.draw(st.integers(0, k)) if k > 1 else 0
    grid = TimeGrid(0.0, 1.0, l)

    def write(path):
        reset(writers)
        if d:
            catalog.save_training_csv(TrainingSet(grid, params, samples), path)
        else:
            commit({path: catalog.waveform_csv(grid, params, samples, kind="basis")})
        return writers.here, writers.helper
    serial, split = tmp_path / "serial.csv", tmp_path / "split.csv"
    writers.cpus = 1
    assert write(serial) == (k, 0)
    writers.cpus = 2
    with mock.patch.object(catalog._Helper, "pump", pump_after(wait)):
        here, helper = write(split)
    assert here + helper == k and helper >= wait
    assert writers.started == (k > 1) and writers.refused == 0
    assert split.read_bytes() == serial.read_bytes()
    if d:
        assert copy_of(split).read_bytes() == copy_of(serial).read_bytes()


def test_a_late_helper_leaves_every_row_to_this_process(tmp_path, writers, chirp_training,
                                                        monkeypatch):
    writers.cpus = 1
    catalog.save_training_csv(chirp_training, tmp_path / "serial.csv")
    reset(writers)
    writers.cpus = 2
    late = tmp_path / "late.py"
    late.write_text("import runpy, time\ntime.sleep(60)\n"
                    f"runpy.run_path({catalog._rowtext.__file__!r}, run_name='__main__')\n")
    monkeypatch.setattr(catalog._rowtext, "__file__", str(late))
    start = time.monotonic()
    catalog.save_training_csv(chirp_training, tmp_path / "late.csv")
    assert time.monotonic() - start < 30  # the helper is killed, not waited for
    assert (writers.started, writers.here, writers.helper) == (1, chirp_training.k, 0)
    assert (tmp_path / "late.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


def test_a_slow_process_leaves_most_rows_to_the_helper(tmp_path, writers, chirp_training):
    writers.cpus = 1
    catalog.save_training_csv(chirp_training, tmp_path / "serial.csv")
    reset(writers)
    writers.cpus = 2
    writers.delay = 0.02
    catalog.save_training_csv(chirp_training, tmp_path / "slow.csv")
    assert writers.here + writers.helper == chirp_training.k
    assert writers.helper > chirp_training.k // 2
    assert (tmp_path / "slow.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


def test_an_interrupted_split_write_leaves_no_helper_or_thread(tmp_path, writers,
                                                               chirp_training, monkeypatch):
    def interrupt(params, parts):
        raise KeyboardInterrupt
    monkeypatch.setattr(catalog._rowtext, "row", interrupt)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        catalog.save_training_csv(chirp_training, tmp_path / "training.csv")
    assert writers.started == 1
    assert threading.active_count() == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list(tmp_path.iterdir()) == []


def test_csv_single_row(tmp_path):
    grid = TimeGrid(0.0, 1.0, 4)
    ts = TrainingSet(grid, np.array([[2.0]]), np.ones((1, 4), dtype=complex))
    path = tmp_path / "one.csv"
    catalog.save_training_csv(ts, path)
    loaded = catalog.load_training_csv(path)
    assert loaded.k == 1


def test_csv_nan_sample_names_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# emprint-training v1, L=2, t_start=0.0, t_end=1.0, d=1\n"
        "1.0,0.5:0.5,nan:0.0\n"
    )
    with pytest.raises(NonFiniteSample) as exc:
        catalog.load_training_csv(path)
    assert "row 0" in str(exc.value) and "column 1" in str(exc.value)


def test_csv_nan_row_number_skips_blank_lines(tmp_path):
    # Rows count parsed waveforms, as the duplicate-parameter check does.
    path = tmp_path / "blank.csv"
    path.write_text(
        "# emprint-training v1, L=2, t_start=0.0, t_end=1.0, d=1\n"
        "1.0,0.5:0.5,0.0:0.0\n"
        "\n"
        "2.0,0.5:0.5,nan:0.0\n"
    )
    with pytest.raises(NonFiniteSample, match="row 1, column 1 .line 4."):
        catalog.load_training_csv(path)
    path.write_text(
        "# emprint-training v1, L=2, t_start=0.0, t_end=1.0, d=1\n"
        "1.0,0.5:0.5,0.0:0.0\n"
        "\n"
        "1.0,0.5:0.5,1.0:0.0\n"
    )
    with pytest.raises(ParseError, match="waveform row 1 repeats .* row 0"):
        catalog.load_training_csv(path)


def test_csv_negative_parameter_count_is_rejected(tmp_path):
    # d=-2 once made cells[:d] and cells[d:] slice from the end, so a
    # one-cell row passed the field count and left two samples unset.
    path = tmp_path / "neg.csv"
    path.write_text(
        "# emprint-training v1, L=3, t_start=0.0, t_end=1.0, d=-2, kind=basis\n"
        "1.0:0.0\n"
    )
    with pytest.raises(ParseError, match="line 1"):
        load_basis_csv(path)


def test_csv_parse_errors_carry_line_numbers(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("not a header\n")
    with pytest.raises(ParseError, match="line 1"):
        catalog.load_training_csv(bad_header)

    wrong_count = tmp_path / "c.csv"
    wrong_count.write_text(
        "# emprint-training v1, L=3, t_start=0.0, t_end=1.0, d=1\n"
        "1.0,0.0:0.0,1.0:0.0\n"
    )
    with pytest.raises(ParseError, match="line 2"):
        catalog.load_training_csv(wrong_count)

    bad_pair = tmp_path / "p.csv"
    bad_pair.write_text(
        "# emprint-training v1, L=2, t_start=0.0, t_end=1.0, d=1\n"
        "1.0,0.0:0.0,oops\n"
    )
    with pytest.raises(ParseError, match="line 2"):
        catalog.load_training_csv(bad_pair)


def test_training_loader_rejects_basis_kind(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text(
        "# emprint-training v1, L=2, t_start=0.0, t_end=1.0, d=0, kind=basis\n"
        "1.0:0.0,0.0:0.0\n"
    )
    with pytest.raises(ParseError):
        catalog.load_training_csv(path)


# ---------------------------------------------------------------------------
# The parsed copy beside a training CSV
# ---------------------------------------------------------------------------

# d=1, L=4: a row of the copy holds 9 doubles, as it would for d=3, L=3.
SMALL = TrainingSet(TimeGrid(0.0, 1.0, 4), np.array([[1.0], [2.0]]),
                    np.array([[0.5 + 0.25j, 1, 2, 3], [4, 5, 6, 7j]]))


def saved_small(tmp_path, name="t.csv"):
    path = tmp_path / name
    catalog.save_training_csv(SMALL, path)
    return path


def copy_header(csv_bytes, k, d, l):
    digest = hashlib.sha256(csv_bytes).hexdigest()
    return f"emprint-parsed v1 sha256={digest} k={k} d={d} l={l}\n".encode()


def assert_same_set(a, b):
    assert a.grid == b.grid
    assert np.array_equal(bits(a.params), bits(b.params))
    assert np.array_equal(bits(a.samples), bits(b.samples))


# SMALL's CSV and its parsed copy, byte for byte: the header line, then the
# K x (d + 2L) values row by row (the parameter, then re, im of each sample).
SMALL_CSV = (b"# emprint-training v1, L=4, t_start=0.0, t_end=1.0, d=1\n"
             b"1.0,0.5:0.25,1.0:0.0,2.0:0.0,3.0:0.0\n"
             b"2.0,4.0:0.0,5.0:0.0,6.0:0.0,0.0:7.0\n")
SMALL_COPY = (b"emprint-parsed v1 sha256=2de5965b4ca6c162890ff4db61248735"
              b"b22726a94bd6a3ac751131adb06148bf k=2 d=1 l=4\n"
              + np.array([[1.0, 0.5, 0.25, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0],
                          [2.0, 4.0, 0.0, 5.0, 0.0, 6.0, 0.0, 0.0, 7.0]], "<f8").tobytes())


def test_parsed_copy_layout(tmp_path):
    path = saved_small(tmp_path)
    assert path.read_bytes() == SMALL_CSV
    assert copy_of(path).read_bytes() == SMALL_COPY
    # The literal's digest is the CSV's, and its payload K x (d + 2L) doubles.
    header, payload = SMALL_COPY.split(b"\n", 1)
    assert header + b"\n" == copy_header(SMALL_CSV, 2, 1, 4)
    assert len(payload) == 2 * (1 + 2 * 4) * 8


def test_frozen_v1_copy_is_read_without_a_parse(tmp_path):
    # Copies already on disk stay valid: the v1 bytes, frozen as a literal,
    # serve the load with the parse disabled.
    path = tmp_path / "t.csv"
    path.write_bytes(SMALL_CSV)
    copy_of(path).write_bytes(SMALL_COPY)
    ts = load_from_copy(path)
    assert_same_set(ts, SMALL)
    assert ts.csv_sha256 == hashlib.sha256(SMALL_CSV).hexdigest()


def test_stale_copy_is_never_served(tmp_path):
    path = saved_small(tmp_path)
    text = path.read_text()
    assert "1.0,0.5:0.25," in text
    path.write_text(text.replace("1.0,0.5:0.25,", "1.0,0.6:0.25,"))
    ts = catalog.load_training_csv(path)
    assert ts.samples[0, 0] == 0.6 + 0.25j
    assert_same_set(ts, load_from_csv(path))


def _rekeyed(path, copy, k=2, d=1, l=4, csv_bytes=None):
    # The same payload under a new header, by default with the right digest.
    csv_bytes = path.read_bytes() if csv_bytes is None else csv_bytes
    return copy_header(csv_bytes, k, d, l) + copy[copy.index(b"\n") + 1:]


@pytest.mark.parametrize("damage", [
    lambda path, copy: copy[:-1],
    lambda path, copy: copy + b"\0",
    lambda path, copy: b"",
    lambda path, copy: copy.replace(b"emprint-parsed", b"emprint-parsex"),
    lambda path, copy: copy.replace(b"parsed v1", b"parsed v2"),
    lambda path, copy: _rekeyed(path, copy, csv_bytes=path.read_bytes() + b"\n"),
    lambda path, copy: copy.replace(b"\n", b" \n", 1),
    lambda path, copy: _rekeyed(path, copy, k=1),
    lambda path, copy: _rekeyed(path, copy, k=3),
    lambda path, copy: _rekeyed(path, copy, d=3, l=3),
    lambda path, copy: _rekeyed(path, copy, d=5, l=2),
    lambda path, copy: copy_of(path.with_name("other.csv")).read_bytes(),
    # The same fields in another form: the header must be exactly the one
    # save_training_csv writes, not merely parse to the same numbers.
    lambda path, copy: copy.replace(b" k=2 ", b" k=02 ", 1),
], ids=["truncated", "trailing-byte", "empty", "wrong-magic", "wrong-version",
        "wrong-digest", "header-padding", "fewer-rows", "more-rows", "d-and-l",
        "d-and-l-again", "another-csv", "zero-padded-count"])
def test_damaged_copy_is_ignored(tmp_path, damage):
    other = TrainingSet(SMALL.grid, SMALL.params + 10, SMALL.samples + 1)
    catalog.save_training_csv(other, tmp_path / "other.csv")
    path = saved_small(tmp_path)
    damaged = damage(path, copy_of(path).read_bytes())
    copy_of(path).write_bytes(damaged)
    with mock.patch.object(catalog, "read_waveform_csv",
                           wraps=catalog.read_waveform_csv) as parse:
        ts = catalog.load_training_csv(path)
    assert parse.call_count == 1
    assert_same_set(ts, SMALL)
    assert copy_of(path).read_bytes() == damaged


@pytest.mark.parametrize("row, error", [
    ("1.0,0.5:0.25,1.0:0.0,2.0:0.0,nan:0.0", NonFiniteSample),
    ("1.0,0.5:0.25,1.0:0.0,2.0:0.0,3.0", ParseError),
    ("1.0,4.0:0.0,5.0:0.0,6.0:0.0,0.0:7.0", ParseError),
], ids=["nan", "bad-pair", "duplicate-row"])
def test_malformed_csv_beside_copy_raises_as_without(tmp_path, row, error):
    path = saved_small(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], lines[1], row]) + "\n")
    with pytest.raises(error) as with_copy:
        catalog.load_training_csv(path)
    with pytest.raises(error) as without_copy:
        load_from_csv(path)
    assert str(with_copy.value) == str(without_copy.value)


@pytest.mark.parametrize("values, error", [
    (np.full((2, 9), np.nan), NonFiniteSample),
    (np.ones((2, 9)), ParseError),
], ids=["nan", "duplicate-row"])
def test_checks_run_on_a_copy_with_the_right_digest(tmp_path, values, error):
    # Every check after the read also guards values served by the copy.
    path = saved_small(tmp_path)
    copy_of(path).write_bytes(copy_header(path.read_bytes(), 2, 1, 4)
                              + values.astype("<f8").tobytes())
    with pytest.raises(error):
        load_from_copy(path)


def test_open_runs_on_the_claim_and_confirms_it(tmp_path):
    path = saved_small(tmp_path)
    before = threading.active_count()
    ts, confirm = catalog.open_training_csv(path)
    assert confirm() is True
    assert threading.active_count() == before  # the hash thread is joined
    assert ts.csv_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    assert_same_set(ts, SMALL)
    # An edited CSV: the set is the copy's, on its claim, which is false.
    old_digest = ts.csv_sha256
    path.write_text(path.read_text().replace("1.0,0.5:0.25,", "1.0,0.6:0.25,"))
    ts, confirm = catalog.open_training_csv(path)
    assert (ts.csv_sha256, ts.samples[0, 0]) == (old_digest, 0.5 + 0.25j)
    assert confirm() is False
    # The text parse, and load_training_csv, serve the edited CSV.
    text = catalog.parse_training_csv(path)
    assert text.samples[0, 0] == 0.6 + 0.25j
    assert_same_set(catalog.load_training_csv(path), text)
    assert catalog.load_training_csv(path).csv_sha256 == text.csv_sha256 != old_digest


@pytest.mark.parametrize("buffer", [1, 7, 1 << 20])
def test_hash_reads_through_one_buffer(tmp_path, monkeypatch, buffer):
    path = saved_small(tmp_path)
    monkeypatch.setattr(catalog, "_HASH_BUFFER", buffer)
    assert catalog._sha256_of(path) == hashlib.sha256(SMALL_CSV).hexdigest()
    assert catalog._sha256_of(tmp_path / "missing.csv") is None


def test_repeated_rows_are_named_by_one_vectorized_check(tmp_path):
    # The first repeat is named, with the first row it repeats; -0.0 and
    # 0.0 are one parameter, as a dict of the rows once took them.
    params = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [2.0, 3.0], [-0.0, 1.0]])
    ts = TrainingSet(TimeGrid(0.0, 1.0, 2), params[[0, 1, 2]], np.ones((3, 2)))
    path = tmp_path / "t.csv"
    catalog.save_training_csv(ts, path)
    copy_of(path).unlink()
    lines = path.read_text().splitlines()
    for rows, message in [([0, 1, 2, 3, 4], "row 3 repeats the parameters of row 1"),
                          ([0, 1, 4, 2], "row 2 repeats the parameters of row 0")]:
        cells = [",".join(map(repr, params[r].tolist())) + ",1.0:0.0,1.0:0.0" for r in rows]
        path.write_text("\n".join([lines[0], *cells]) + "\n")
        with pytest.raises(ParseError, match=f"^waveform {message}$"):
            catalog.load_training_csv(path)
    with pytest.raises(ValueError, match="pairwise distinct"):
        TrainingSet(ts.grid, params, np.ones((5, 2)))


@settings(max_examples=80, deadline=None)
@given(params=hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 3)),
                         elements=st.sampled_from([0.0, -0.0, 1.0, 2.5, -7.0])))
def test_repeated_row_check_matches_a_dict_walk(params):
    repeat = first_repeat(params)
    try:
        TrainingSet(TimeGrid(0.0, 1.0, 2), params, np.ones((params.shape[0], 2)))
    except catalog._RepeatedParameters as exc:
        assert (exc.row, exc.first) == repeat
    else:
        assert repeat is None


def test_load_never_writes_the_copy(tmp_path):
    path = saved_small(tmp_path)
    copy = copy_of(path)
    before = copy.stat()
    load_from_copy(path)
    after = copy.stat()
    assert (after.st_mtime_ns, after.st_ino) == (before.st_mtime_ns, before.st_ino)
    copy.unlink()
    catalog.load_training_csv(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


# ---------------------------------------------------------------------------
# Rows the reader must not take
# ---------------------------------------------------------------------------

HEADER_L2 = "# emprint-training v1, L=2, t_start=0.0, t_end=1.0, d=1\n"
GOOD_ROW = "1.0,0.5:0.5,0.0:0.0\n"


def load_strict(path):
    # No warning may escape the reader.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return catalog.load_training_csv(path)


@pytest.mark.parametrize("row, error, message", [
    # Separator counts are right, but '1:2:3,4' read as numbers is two pairs.
    ("2.0,1:2:3,4", ParseError, "line 3: bad sample pair '1:2:3'"),
    ("2.0,1:2,3:4,", ParseError, "line 3: expected 3 fields"),
    ("2.0,1:2,3:", ParseError, "line 3: bad float ''"),
    ("2.0,:2,3:4", ParseError, "line 3: bad float ''"),
    ("2.0,,3:4", ParseError, "line 3: bad sample pair ''"),
    ("2.0,1:2,3:4 5", ParseError, "line 3: bad float '4 5'"),
    ("2.0,1:2,0x1p3:4", ParseError, "line 3: bad float '0x1p3'"),
    ("2.0,1:2,nan(1):4", ParseError, "line 3: bad float 'nan\\(1\\)'"),
    # A blank cell is not a number.
    ("2.0,1:2,3: ", ParseError, "line 3: bad float ' '"),
    (" ,1:2,3:4", ParseError, "line 3: bad float ' '"),
    # float() reads these, the documented decimal format does not.
    ("2.0,1_0:2,3:4", ParseError, "line 3: cells must be ASCII decimal floats"),
    ("2.0,\u0661:2,3:4", ParseError, "line 3: cells must be ASCII decimal floats"),
    ("1e400,1:2,3:4", NonFiniteSample, "parameter at row 1, component 0 .line 3."),
    ("2.0,1:2,3:1e400", NonFiniteSample, "sample at row 1, column 1 .line 3."),
    ("2.0,nan:2,3:4", NonFiniteSample, "sample at row 1, column 0 .line 3."),
    ("2.0,1:2,-inf:4", NonFiniteSample, "sample at row 1, column 1 .line 3."),
])
def test_csv_malformed_row_names_its_cell(tmp_path, row, error, message):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER_L2 + GOOD_ROW + row + "\n", encoding="utf-8")
    with pytest.raises(error, match=message):
        load_strict(path)


def test_csv_whitespace_around_cells_is_read(tmp_path):
    path = tmp_path / "ws.csv"
    path.write_text(HEADER_L2 + " 1.0 ,\t0.5:0.5 , 0:-0.0\n")
    ts = load_strict(path)
    expected = np.array([[0.5 + 0.5j, complex(0.0, -0.0)]])
    assert np.array_equal(bits(ts.samples), bits(expected))


def test_csv_minus_one_is_read(tmp_path):
    # A written -1 is data, though a blank cell is not.
    path = tmp_path / "m1.csv"
    path.write_text(HEADER_L2 + "-1,-1:-1.0,-1e0: 1\n")
    ts = load_strict(path)
    assert ts.params.tolist() == [[-1.0]]
    assert ts.samples.tolist() == [[-1 - 1j, -1 + 1j]]


def test_csv_good_rows_are_not_walked(tmp_path, monkeypatch):
    # A row that float() reads in full is taken as read; the cell walk runs
    # only to name the bad cell of a rejected row.
    walked = []
    check_row = catalog._check_row
    monkeypatch.setattr(catalog, "_check_row",
                        lambda *args: walked.append(args) or check_row(*args))
    path = tmp_path / "m1.csv"
    path.write_text(HEADER_L2 + "-1,-1:-1.0,-1e0: 1\n")
    catalog.load_training_csv(path)
    assert walked == []


def test_csv_parse_reads_numbers_with_float_only(tmp_path, monkeypatch):
    ts = catalog.generate_family(catalog.make_family_spec(
        "gaussian_packet", 9, TimeGrid(-1.0, 1.0, 33), sampling="random", seed=3))
    path = tmp_path / "t.csv"
    catalog.save_training_csv(ts, path)
    monkeypatch.setattr(np, "fromstring",
                        mock.Mock(side_effect=AssertionError("np.fromstring was called")))
    loaded = load_from_csv(path)
    assert np.array_equal(bits(loaded.params), bits(ts.params))
    assert np.array_equal(bits(loaded.samples), bits(ts.samples))


def test_csv_header_larger_than_its_rows(tmp_path):
    # Nothing is allocated from the header's sizes before a row shows them.
    path = tmp_path / "huge.csv"
    path.write_text("# emprint-training v1, L=1000000000000, t_start=0.0, "
                    "t_end=1.0, d=1\n" + GOOD_ROW)
    with pytest.raises(ParseError, match="line 2: expected 1000000000001 fields"):
        load_strict(path)


def test_csv_header_with_infinite_grid(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("# emprint-training v1, L=2, t_start=-inf, t_end=inf, d=1\n"
                    + GOOD_ROW)
    with pytest.raises(ParseError, match="line 1: .*endpoints must be finite"):
        load_strict(path)


# Cells the two readers may disagree on: decimal floats in several forms,
# stray separators, whitespace, and text that float() or strtod take.
cell_text = st.one_of(
    finite.map(repr),
    st.sampled_from(["", " ", "1.", ".5", "+.5", "-0", "1e5", "1E-5", "1e", "1e+",
                     "inf", "-nan", "infinity", "nan(3)", "1_0", "0x10", "1d5",
                     "\u0661", "\uff11", "1 2", "\t3", "4\t", "1e400", "1e-400"]),
    st.text(alphabet="0123456789.eE+-_ :,\tnaif\u0661", max_size=6),
)


def reference_row(line: str, d: int, l: int):
    """The row read by float() per cell, or None where that reader rejects it."""
    cells = line.split(",")
    pairs = [cell.split(":") for cell in cells[d:]]
    if len(cells) != d + l or any(len(pair) != 2 for pair in pairs):
        return None
    try:
        values = [float(c) for c in cells[:d]] + [float(x) for p in pairs for x in p]
    except ValueError:
        return None
    return values if all(map(math.isfinite, values)) else None


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cells=st.lists(cell_text, min_size=3, max_size=7),
       seps=st.lists(st.sampled_from([",", ":"]), min_size=6, max_size=6),
       proper=st.booleans())
def test_csv_reader_takes_only_what_float_takes(tmp_path, cells, seps, proper):
    # d=1, L=2: a proper row is p,a:b,c:e. Whatever the reader returns, the
    # float() reader returns bit for bit; whatever that one rejects, it rejects.
    if proper:
        seps = [",", ":", ",", ":", ",", ":"]
    line = cells[0] + "".join(s + c for s, c in zip(seps, cells[1:]))
    path = tmp_path / "row.csv"
    path.write_text(HEADER_L2 + line + "\n", encoding="utf-8")
    expected = reference_row(line, 1, 2) if line.strip() else None
    try:
        ts = load_strict(path)
    except (ParseError, NonFiniteSample):
        got = None
    else:
        got = np.concatenate([ts.params[0], ts.samples[0].view(np.float64)])
    if got is not None:
        assert expected is not None
        assert bits(got).tolist() == bits(np.array(expected)).tolist()
    elif expected is not None:
        # Only cells outside ASCII decimal may be refused where float() reads them.
        assert not line.isascii() or "_" in line, line
