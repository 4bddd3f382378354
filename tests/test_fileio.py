import math
import os
import stat

import numpy as np
import pytest

from emprint import catalog, cli, diagnostics, eim, rbm
from emprint._fileio import (atomic_write_bytes, atomic_write_text, read_keyed_copy,
                             write_keyed_copy)
from emprint.catalog import TimeGrid
from emprint.diagnostics import DiagnosticsReport, OrderRecord
from emprint.eim import EmpiricalInterpolant, SelectionCriterion, StepRecord


@pytest.mark.parametrize("write, data", [(atomic_write_text, "a,b\n"),
                                         (atomic_write_bytes, b"a,b\n")],
                         ids=["text", "bytes"])
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_file_respects_umask(tmp_path, umask, mode, write, data):
    old = os.umask(umask)
    try:
        write(tmp_path / "out.csv", data)
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "out.csv").stat().st_mode) == mode
    assert (tmp_path / "out.csv").read_bytes() == b"a,b\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def _header(n):
    return f"test-copy v1 n={n}"


def test_keyed_copy_reads_back_bitwise_into_an_aligned_read_only_array(tmp_path):
    values = np.arange(12) / 7
    write_keyed_copy(tmp_path / "c.f64", _header(4), values)
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


def test_greedy_errors_table(tmp_path):
    rb = rbm.ReducedBasis(GRID, BASIS_ROWS, np.array([0.1, 2.5e-16]), (4, 0), 1e-12)
    rbm.save_greedy_errors_csv(rb, tmp_path / "greedy_errors.csv")
    assert (tmp_path / "greedy_errors.csv").read_bytes() == b"n,sigma_sq\n1,0.1\n2,2.5e-16\n"


def test_theorem_check_table(tmp_path, monkeypatch):
    monkeypatch.setattr(eim, "verify_determinant_identity",
                        lambda rb, n: [1.5e-15, 0.0, 1e-300])
    assert cli.main(["verify-theorem", "--family", "damped_chirp", "--k", "5", "--l", "11",
                     "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "theorem_check.csv").read_bytes() == (
        b"step,max_rel_discrepancy\n2,1.5e-15\n3,0.0\n4,1e-300\n")


def test_curve_tables(tmp_path):
    assert diagnostics.write_curve_csvs(REPORTS, tmp_path) == [
        "kappa.csv", "lambda.csv", "errors.csv", "nodes.csv"]
    expected = {
        "kappa.csv": b"n,kappa_classic,kappa_kappa\n1,1.0,1.0\n2,1.2345678901234568e+16,1.25\n",
        "lambda.csv": b"n,lambda_classic,lambda_kappa\n1,1.0,1.0\n2,2.0,inf\n",
        "errors.csv": (b"n,proj_err_sq,interp_err_sq_classic,interp_err_sq_kappa\n"
                       b"1,0.25,0.5,0.5\n2,1e-300,inf,0.30000000000000004\n"),
        "nodes.csv": b"criterion,n,nodes\nclassic,1,1\nclassic,2,1 2\nkappa,1,1\nkappa,2,1 2\n",
    }
    for name, data in expected.items():
        assert (tmp_path / name).read_bytes() == data, name


def test_report_json(tmp_path):
    diagnostics.write_report_json(REPORTS[SelectionCriterion.CLASSIC], tmp_path / "r.json")
    assert (tmp_path / "r.json").read_text(encoding="utf-8") == """{
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


def test_interpolant_json_with_re_im_cells(tmp_path):
    # Nodes 1 and 2 of BASIS_ROWS: V = diag(0.8i, i), B_1 = e_1 / 0.8i.
    rb = rbm.ReducedBasis(GRID, BASIS_ROWS, np.array([0.1, 2.5e-16]), (4, 0), 1e-12)
    itp = EmpiricalInterpolant(
        rb, (1, 2), np.array([[-0.75j, 1.0, 0.0], [0.0, 0.0, 1.0]]), BASIS_ROWS,
        SelectionCriterion.CLASSIC,
        (StepRecord(0.8j, 1.0, 1.25, 0.8), StepRecord(complex(-0.8, -0.0), 1.25, 1.25, 1.0)))
    eim.save_interpolant_json(itp, tmp_path / "i.json", include_matrices=True)
    assert (tmp_path / "i.json").read_text(encoding="utf-8") == """{
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
    data = catalog.write_waveform_csv(tmp_path / "w.csv", GRID, np.array([[0.5]]),
                                      np.array([[1 + 2j, complex(-0.0, 1e-300), 3]]))
    assert data == (b"# emprint-training v1, L=3, t_start=0.0, t_end=1.0, d=1\n"
                    b"0.5,1.0:2.0,-0.0:1e-300,3.0:0.0\n")
    assert (tmp_path / "w.csv").read_bytes() == data
