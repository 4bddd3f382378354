import builtins
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from emprint import _fileio, catalog, cli, diagnostics, eim, rbm
from emprint._fileio import commit, keyed_copy, read_keyed_copy, repr_rows
from emprint.catalog import TimeGrid
from emprint.diagnostics import DiagnosticsReport, OrderRecord
from emprint.eim import EmpiricalInterpolant, SelectionCriterion, StepRecord

from oracles import formatter_layouts, formatter_powers_of_ten


# A file's contents are its bytes, or a list of buffers, as a text's lines.
@pytest.mark.parametrize("data", [[b"a,", b"b\n"], b"a,b\n"], ids=["text", "bytes"])
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_file_respects_umask(tmp_path, umask, mode, data):
    old = os.umask(umask)
    try:
        commit({tmp_path / "out.csv": data})
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "out.csv").stat().st_mode) == mode
    assert (tmp_path / "out.csv").read_bytes() == b"a,b\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def _header(n):
    return f"test-copy v1 n={n}"


def test_keyed_copy_reads_back_bitwise_into_an_aligned_read_only_array(tmp_path):
    values = np.arange(12) / 7
    commit({tmp_path / "c.f64": keyed_copy(_header(4), values)})
    read = read_keyed_copy(tmp_path / "c.f64", _header, 3)
    assert read.dtype == np.dtype("<f8") and read.tobytes() == values.tobytes()
    assert read.flags.aligned and not read.flags.writeable


@pytest.mark.parametrize("header, payload", [
    (_header(5), np.arange(12.0).tobytes()),
    (_header(4), np.arange(11.0).tobytes()),
    (_header(0), b""),
    (_header(4), np.arange(12.0).tobytes() + b"\0"),
    (_header(4)[:-1], np.arange(12.0).tobytes()),
], ids=["other-header", "partial-row", "no-rows", "trailing-byte", "short-header"])
def test_keyed_copy_refuses_any_other_file(tmp_path, header, payload):
    (tmp_path / "c.f64").write_bytes(f"{header}\n".encode("ascii") + payload)
    assert read_keyed_copy(tmp_path / "c.f64", _header, 3) is None


@pytest.mark.parametrize("make", [lambda p: None, lambda p: p.mkdir()],
                         ids=["missing", "directory"])
def test_keyed_copy_refuses_what_is_no_file(tmp_path, make):
    make(tmp_path / "c.f64")
    assert read_keyed_copy(tmp_path / "c.f64", _header, 3) is None


# ---------------------------------------------------------------------------
# The float text: repr_rows gives each value the bytes repr gives it
# ---------------------------------------------------------------------------

def repr_mismatches(values) -> list:
    """(repr, repr_rows's text) of each value of ``values`` on which they
    differ, formatted in blocks of 8,192 as one column."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    bad = []
    for start in range(0, values.size, 8192):
        block = values[start:start + 8192]
        got = repr_rows(block.reshape(-1, 1), b"\n").decode("ascii").split("\n")
        assert len(got) == block.size + 1 and got[-1] == ""
        bad += [(want, text) for want, text in zip(map(repr, block.tolist()), got) if want != text]
    return bad


POWERS_OF_TEN = np.array([float(f"1e{e}") for e in range(-323, 309)])


@pytest.mark.parametrize("values", [
    [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
     1.7976931348623157e308, -1.7976931348623157e308],
    np.concatenate([POWERS_OF_TEN, np.nextafter(POWERS_OF_TEN, 0),
                    np.nextafter(POWERS_OF_TEN, np.inf), -POWERS_OF_TEN]),
    np.ldexp(1.0, np.arange(-1074, 1024)),
    np.arange(-10 ** 5, 10 ** 5 + 1),
    [float(f"{m}e{e}") for m in (1, 2, 5, 12, 123, 999, 1234567) for e in range(-30, 31)]
    + [0.1, 0.2, 0.3, 0.30000000000000004, 1.5, 2.5, 123.456, 1e-5, 1e-4, 0.001234,
       1e16, 1e22, 9007199254740993.0, 1234567890123456.8, 12345678901234567.0],
    np.random.default_rng(20240817).integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(
        np.float64),
], ids=["extremes", "powers-of-ten", "powers-of-two", "integers", "short-decimals",
        "random-bits"])
def test_repr_rows_gives_repr(values):
    assert repr_mismatches(values)[:10] == []


@pytest.mark.parametrize("family, k, l", [("damped_chirp", 31, 401),
                                          ("gaussian_packet", 64, 201),
                                          ("poly_fourier", 21, 301)])
def test_repr_rows_gives_repr_on_every_family(family, k, l):
    ts = catalog.generate_family(catalog.make_family_spec(family, k, grid=TimeGrid(0.0, 1.0, l)))
    values = np.concatenate([ts.params.reshape(-1), ts.samples.view(np.float64).reshape(-1)])
    assert repr_mismatches(values)[:10] == []


# Values the formatter cannot decide for certain, by class; each must be
# written by repr itself. The doubles nearest 1e23 and 1e-7 lie just below
# them, where log10 gives 23 and -7; 2**53 + 2 has N +- U integers (N =
# 10 x, U = 10), and N of 3 * 2**-24 lies on a rounding midpoint.
UNDECIDED = {
    "zero": [0.0, -0.0],
    "subnormal": [5e-324, -2.225073858507201e-308],
    "outside-1e-280-1e280": [9.99e-281, 1.01e280, -1.7976931348623157e308],
    "non-finite": [math.inf, -math.inf, math.nan],
    "power-of-two": [0.5, 2.0 ** -900, -(2.0 ** 900)],
    "next-decade": [1e23, -1e-7, 0.09999999999999999],
    "interval-end": [9007199254740994.0, 9007199254740996.0],
    "midpoint": [1.7881393432617188e-07, 5.960464477539062e-07],
}


@pytest.mark.parametrize("case", UNDECIDED)
def test_each_undecided_class_goes_to_repr(monkeypatch, case):
    written = []
    monkeypatch.setattr(_fileio, "repr", lambda v: written.append(v) or builtins.repr(v),
                        raising=False)
    values = UNDECIDED[case] + [0.1, -123.456]  # two it decides
    text = repr_rows(np.array([values]), b"," * (len(values) - 1) + b"\n")
    assert text == (",".join(map(repr, values)) + "\n").encode("ascii")
    assert list(map(repr, written)) == list(map(repr, UNDECIDED[case]))


def test_formatter_tables_equal_their_one_entry_at_a_time_builders():
    for table, reference in zip(_fileio._layouts(), formatter_layouts()):
        assert table.dtype == reference.dtype and table.shape == reference.shape
        assert table.tobytes() == reference.tobytes()
    hi, lo = formatter_powers_of_ten()
    pairs = np.array([_fileio._power_of_ten(k) for k in range(-266, 299)])
    assert pairs[:, 0].tobytes() == hi.tobytes() and pairs[:, 1].tobytes() == lo.tobytes()


def test_formatter_tables_are_made_on_first_use():
    # An import of the package makes no table (its time counts in every
    # command), and a block makes only the powers of ten of its own values:
    # here k = 16 - floor(log10 |x|) runs from 11 to 28.
    code = ("import numpy\n"
            "from emprint import _fileio\n"
            "assert _fileio._layouts.cache_info().currsize == 0\n"
            "assert _fileio._power_of_ten.cache_info().currsize == 0\n"
            "_fileio.repr_rows(numpy.array([[0.5, 1e-12], [3.25, -7e5]]), b',\\n')\n"
            "print(_fileio._power_of_ten.cache_info().currsize)")
    src = str(Path(_fileio.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert int(out) == 18


def test_separators_follow_their_columns():
    block = np.array([[1.0, -2.5, 3e-7], [0.1, 1e300, -0.0]])
    assert repr_rows(block, b":,\n") == b"1.0:-2.5,3e-07\n0.1:1e+300,-0.0\n"
    assert repr_rows(np.empty((0, 3)), b":,\n") == b""


# ---------------------------------------------------------------------------
# The artifact formats, pinned byte for byte on hand-built inputs
# ---------------------------------------------------------------------------

GRID = TimeGrid(0.0, 1.0, 3)
BASIS_ROWS = np.array([[0.6, 0.8j, 0.0], [0.0, 0.0, 1j]])


def _report(criterion, kappas, lambdas, interp_errs):
    records = tuple(OrderRecord(n, *values, nodes) for n, *values, nodes in zip(
        (1, 2), kappas, lambdas, interp_errs, (0.25, 1e-300), ((1,), (1, 2))))
    return DiagnosticsReport(criterion, records, "hand", GRID)


REPORTS = {
    SelectionCriterion.MIN_KAPPA: _report(SelectionCriterion.MIN_KAPPA, (1.0, 1.25),
                                          (1.0, math.inf), (0.5, 0.30000000000000004)),
    SelectionCriterion.CLASSIC: _report(SelectionCriterion.CLASSIC, (1.0, 12345678901234567.0),
                                        (1.0, 2.0), (0.5, math.inf)),
}


def test_greedy_errors_table():
    rb = rbm.ReducedBasis(GRID, BASIS_ROWS, np.array([0.1, 2.5e-16]), (4, 0), 1e-12)
    assert rbm.greedy_errors_csv(rb) == b"n,sigma_sq\n1,0.1\n2,2.5e-16\n"


def test_theorem_check_table(tmp_path, monkeypatch):
    monkeypatch.setattr(eim, "verify_determinant_identity",
                        lambda rb, n: [1.5e-15, 0.0, 1e-300])
    assert cli.main(["verify-theorem", "--family", "damped_chirp", "--k", "5", "--l", "11",
                     "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "theorem_check.csv").read_bytes() == (
        b"step,max_rel_discrepancy\n2,1.5e-15\n3,0.0\n4,1e-300\n")


def test_curve_tables():
    curves = diagnostics.curve_csvs(REPORTS)
    assert list(curves) == ["kappa.csv", "lambda.csv", "errors.csv", "nodes.csv"]
    expected = {
        "kappa.csv": b"n,kappa_classic,kappa_kappa\n1,1.0,1.0\n2,1.2345678901234568e+16,1.25\n",
        "lambda.csv": b"n,lambda_classic,lambda_kappa\n1,1.0,1.0\n2,2.0,inf\n",
        "errors.csv": (b"n,proj_err_sq,interp_err_sq_classic,interp_err_sq_kappa\n"
                       b"1,0.25,0.5,0.5\n2,1e-300,inf,0.30000000000000004\n"),
        "nodes.csv": b"criterion,n,nodes\nclassic,1,1\nclassic,2,1 2\nkappa,1,1\nkappa,2,1 2\n",
    }
    for name, data in expected.items():
        assert curves[name] == data, name


def test_report_json():
    data = diagnostics.report_json(REPORTS[SelectionCriterion.CLASSIC])
    assert data.decode("utf-8") == """{
  "dataset_id": "hand",
  "criterion": "classic",
  "basis_convention": "euclidean-orthonormal-rows",
  "grid": {
    "t_start": 0.0,
    "t_end": 1.0,
    "n_samples": 3,
    "dt": 0.5
  },
  "per_n": [
    {
      "n": 1,
      "kappa": 1.0,
      "lambda": 1.0,
      "max_interp_err_sq": 0.5,
      "max_proj_err_sq": 0.25,
      "nodes": [
        1
      ]
    },
    {
      "n": 2,
      "kappa": 1.2345678901234568e+16,
      "lambda": 2.0,
      "max_interp_err_sq": Infinity,
      "max_proj_err_sq": 1e-300,
      "nodes": [
        1,
        2
      ]
    }
  ]
}
"""


def test_interpolant_json_with_re_im_cells():
    # Nodes 1 and 2 of BASIS_ROWS: V = diag(0.8i, i), B_1 = e_1 / 0.8i.
    rb = rbm.ReducedBasis(GRID, BASIS_ROWS, np.array([0.1, 2.5e-16]), (4, 0), 1e-12)
    itp = EmpiricalInterpolant(
        rb, (1, 2), np.array([[-0.75j, 1.0, 0.0], [0.0, 0.0, 1.0]]), BASIS_ROWS,
        SelectionCriterion.CLASSIC,
        (StepRecord(0.8j, 1.0, 1.25, 0.8), StepRecord(complex(-0.8, -0.0), 1.25, 1.25, 1.0)))
    data = diagnostics.interpolant_json(itp, include_matrices=True)
    assert data.decode("utf-8") == """{
  "criterion": "classic",
  "n": 2,
  "node_indices": [
    1,
    2
  ],
  "grid": {
    "t_start": 0.0,
    "t_end": 1.0,
    "n_samples": 3
  },
  "per_step": [
    {
      "n": 1,
      "det_v": "0.0:0.8",
      "kappa": 1.0,
      "lambda": 1.25,
      "residual_at_node": 0.8
    },
    {
      "n": 2,
      "det_v": "-0.8:-0.0",
      "kappa": 1.25,
      "lambda": 1.25,
      "residual_at_node": 1.0
    }
  ],
  "v_matrix_csv": "0.0:0.8,0.0:0.0\\n0.0:0.0,0.0:1.0",
  "b_matrix_csv": "-0.0:-0.75,1.0:0.0,0.0:0.0\\n0.0:0.0,0.0:0.0,1.0:0.0"
}
"""


def test_waveform_row_of_re_im_cells(tmp_path):
    # The header, then the rows' blocks, each made as the file is written.
    lines = catalog.waveform_csv(GRID, np.array([[0.5], [-2.0]]),
                                 np.array([[1 + 2j, complex(-0.0, 1e-300), 3],
                                           [1e16, complex(0.1, -1e-5), 123.456j]]))
    commit({tmp_path / "w.csv": lines})
    assert (tmp_path / "w.csv").read_bytes() == (
        b"# emprint-training v1, L=3, t_start=0.0, t_end=1.0, d=1\n"
        b"0.5,1.0:2.0,-0.0:1e-300,3.0:0.0\n"
        b"-2.0,1e+16:0.0,0.1:-1e-05,0.0:123.456\n")
    assert next(lines, None) is None  # consumed once, by the write
