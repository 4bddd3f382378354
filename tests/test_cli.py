import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from emprint import catalog, eim, rbm
from emprint.cli import main
from emprint.numerics import error_floor_sq

from oracles import load_basis_csv, weighted_norm

CHIRP = ["--family", "damped_chirp", "--k", "25", "--l", "201"]
COMPARE_ARTIFACTS = ("kappa.csv", "lambda.csv", "errors.csv", "nodes.csv",
                     "report_classic.json", "report_kappa.json", "report_lambda.json")


def read(path):
    return path.read_text().splitlines()


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_writes_training_csv(tmp_path):
    assert main(["generate", *CHIRP, "--out-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["training.csv", "training.csv.f64"]
    lines = read(tmp_path / "training.csv")
    assert lines[0] == "# emprint-training v1, L=201, t_start=0.0, t_end=1.0, d=1"
    assert len(lines) == 26
    ts = catalog.load_training_csv(tmp_path / "training.csv")
    assert ts.k == 25


def test_generate_unknown_family_names_it(tmp_path, capsys):
    code = main(["generate", "--family", "warbler", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "warbler" in capsys.readouterr().err


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["generate", *CHIRP, "--out-dir", str(out)]) == 0
    for name in ("training.csv", "training.csv.f64"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def test_basis_poly_fourier_has_ten_rows(tmp_path):
    code = main(["basis", "--family", "poly_fourier", "--k", "40", "--l", "201",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    lines = read(tmp_path / "greedy_errors.csv")
    assert lines[0] == "n,sigma_sq"
    assert len(lines) == 11
    grid, rows = load_basis_csv(tmp_path / "basis.csv")
    assert rows.shape == (10, 201)


def test_basis_huge_tol_gives_single_vector(tmp_path):
    code = main(["basis", *CHIRP, "--tol", "1e6", "--out-dir", str(tmp_path)])
    assert code == 0
    assert len(read(tmp_path / "greedy_errors.csv")) == 2


def test_basis_missing_input(tmp_path, capsys):
    code = main(["basis", "--input", str(tmp_path / "nope.csv"),
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_input_directory_exits_2(tmp_path, capsys):
    code = main(["basis", "--input", str(tmp_path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "not a file" in capsys.readouterr().err


def test_config_directory_exits_2(tmp_path, capsys):
    code = main(["basis", *CHIRP, "--config", str(tmp_path), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "not a file" in capsys.readouterr().err


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
def test_out_dir_blocked_by_file_exits_2(tmp_path, capsys, below):
    blocker = tmp_path / "training.csv"
    blocker.write_text("not a directory\n")
    code = main(["basis", *CHIRP, "--out-dir", str(blocker / below)])
    assert code == 2
    assert f"{blocker} is not one" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["training.csv"]


def test_basis_from_ingested_csv(tmp_path):
    assert main(["generate", *CHIRP, "--out-dir", str(tmp_path)]) == 0
    code = main(["basis", "--input", str(tmp_path / "training.csv"),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "basis.csv").exists()


# ---------------------------------------------------------------------------
# eim and compare
# ---------------------------------------------------------------------------

def test_eim_writes_interpolant_json(tmp_path):
    code = main(["eim", *CHIRP, "--criteria", "classic,lambda", "--n", "5",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    for tag in ("classic", "lambda"):
        doc = json.loads((tmp_path / f"interpolant_{tag}.json").read_text())
        assert doc["criterion"] == tag
        assert len(doc["node_indices"]) == 5
        assert "v_matrix_csv" not in doc


def test_eim_embed_matrices(tmp_path):
    code = main(["eim", *CHIRP, "--criteria", "classic", "--n", "3",
                 "--embed-matrices", "--out-dir", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "interpolant_classic.json").read_text())
    assert len(doc["v_matrix_csv"].splitlines()) == 3


def test_eim_bad_criterion(tmp_path, capsys):
    code = main(["eim", *CHIRP, "--criteria", "sideways", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "sideways" in capsys.readouterr().err


def test_compare_outputs(tmp_path):
    code = main(["compare", *CHIRP, "--criteria", "classic,kappa,lambda",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    for name in COMPARE_ARTIFACTS:
        assert (tmp_path / name).exists()

    # Roundoff floor on the same training rows the command generated.
    ts = catalog.generate_family(catalog.make_family_spec(
        "damped_chirp", 25, grid=catalog.TimeGrid(0.0, 1.0, 201)))
    floor = error_floor_sq(max(weighted_norm(h, ts.grid.dt) ** 2 for h in ts.samples))
    err_lines = read(tmp_path / "errors.csv")
    assert err_lines[0].split(",")[1] == "proj_err_sq"
    for line in err_lines[1:]:
        cells = [float(x) for x in line.split(",")]
        assert all(cells[1] <= v * (1 + 1e-10) + floor for v in cells[2:])

    node_rows = {}
    for line in read(tmp_path / "nodes.csv")[1:]:
        criterion, _, nodes = line.split(",")
        node_rows.setdefault(criterion, []).append(nodes.split())
    assert set(node_rows) == {"classic", "kappa", "lambda"}
    for rows in node_rows.values():
        for prev, cur in zip(rows, rows[1:]):
            assert cur[: len(prev)] == prev


def test_compare_prints_table_and_ratios(tmp_path, capsys):
    code = main(["compare", *CHIRP, "--criteria", "classic,kappa,lambda",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("wrote 3 report(s)")
    header = out[2].split()
    assert header[:4] == ["n", "classic", "kappa", "lambda"]
    n = len(read(tmp_path / "errors.csv")) - 1
    rows = [line.split() for line in out[3:3 + n]]
    assert [int(r[0]) for r in rows] == list(range(1, n + 1))
    report = json.loads((tmp_path / "report_kappa.json").read_text())
    for row, rec in zip(rows, report["per_n"]):
        assert len(row) == 1 + 3 * 3  # n, then kappa/lambda/error per rule
        assert float(row[4]) == pytest.approx(rec["kappa"], abs=0.005)
        assert float(row[6]) == pytest.approx(rec["max_interp_err_sq"], rel=0.01)
    ratios = out[3 + n:]
    assert [line.split(":")[0] for line in ratios] == [
        "error ratio classic/kappa", "error ratio classic/lambda"]
    assert all("min" in line and "geo-mean" in line for line in ratios)


def test_compare_prints_no_ratio_without_classic(tmp_path, capsys):
    code = main(["compare", *CHIRP, "--criteria", "lambda,kappa",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[2].split() == ["n", "lambda", "kappa",
                                           "(kappa_n", "/", "lambda_n", "/",
                                           "interp_err_sq)"]
    assert "error ratio" not in out


def test_compare_exact_span_at_full_order(tmp_path, capsys):
    # poly_fourier saturates at n=10, where projection and interpolation
    # errors are both roundoff on rows of norm^2 ~ 2.8e3: not a config error.
    code = main(["compare", "--family", "poly_fourier", "--k", "60", "--l", "301",
                 "--criteria", "classic,kappa,lambda", "--out-dir", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    for name in COMPARE_ARTIFACTS:
        assert (tmp_path / name).exists()
    assert len(read(tmp_path / "errors.csv")) == 11


def test_compare_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = main(["compare", *CHIRP, "--criteria", "classic,kappa",
                     "--out-dir", str(out)])
        assert code == 0
    for name in ("kappa.csv", "lambda.csv", "errors.csv", "nodes.csv",
                 "report_classic.json", "report_kappa.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# ---------------------------------------------------------------------------
# verify-theorem
# ---------------------------------------------------------------------------

def test_verify_theorem_passes(tmp_path):
    code = main(["verify-theorem", *CHIRP, "--out-dir", str(tmp_path)])
    assert code == 0
    lines = read(tmp_path / "theorem_check.csv")
    assert lines[0] == "step,max_rel_discrepancy"
    assert all(float(line.split(",")[1]) <= 1e-7 for line in lines[1:])


def test_verify_theorem_two_steps(tmp_path):
    code = main(["verify-theorem", *CHIRP, "--n", "2", "--out-dir", str(tmp_path)])
    assert code == 0
    lines = read(tmp_path / "theorem_check.csv")
    assert len(lines) == 2
    step, disc = lines[1].split(",")
    assert step == "2"
    assert float(disc) <= 1e-10


def test_verify_theorem_fails_on_nan_after_first_step(tmp_path, monkeypatch, capsys):
    # max() keeps the first of [1e-16, nan]; a NaN at any step must fail.
    monkeypatch.setattr(eim, "verify_determinant_identity",
                        lambda rb, n: [1e-16, math.nan])
    code = main(["verify-theorem", *CHIRP, "--n", "3", "--out-dir", str(tmp_path)])
    assert code == 1
    assert read(tmp_path / "theorem_check.csv") == [
        "step,max_rel_discrepancy", "2,1e-16", "3,nan"]
    assert "worst step discrepancy nan (FAIL" in capsys.readouterr().out


def test_verify_theorem_fails_on_broken_elimination(tmp_path, monkeypatch):
    def skewed(x, t, residual):
        x -= (1 - 1e-6) * np.outer(x[:, t] / residual[t], residual)
    monkeypatch.setattr(eim, "_eliminate", skewed)
    code = main(["verify-theorem", *CHIRP, "--out-dir", str(tmp_path)])
    assert code == 1


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": "damped_chirp", "k": 10, "l": 101}))
    out = tmp_path / "out"
    code = main(["generate", "--config", str(cfg), "--k", "12",
                 "--out-dir", str(out)])
    assert code == 0
    ts = catalog.load_training_csv(out / "training.csv")
    assert ts.k == 12  # flag wins
    assert ts.grid.n_samples == 101  # config fills the rest


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"familly": "damped_chirp"}))
    assert main(["generate", "--config", str(cfg)]) == 2
    assert "familly" in capsys.readouterr().err


@pytest.mark.parametrize("command, values", [
    ("eim", {"criteria": 5}),
    ("verify-theorem", {"n": "3"}),
    ("eim", {"first_node_variant": "yes"}),
    ("generate", {"k": True}),
    ("generate", {"k": None}),
    ("generate", {"t_end": "2"}),
    ("basis", {"tol": False}),
], ids=["criteria-int", "n-str", "first_node_variant-str", "k-bool", "k-null",
        "t_end-str", "tol-bool"])
def test_config_value_of_wrong_type(tmp_path, capsys, command, values):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": "damped_chirp", "k": 10, "l": 101, **values}))
    assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    [key] = values
    assert repr(key) in capsys.readouterr().err


def test_config_accepts_int_for_float_and_null_for_optional(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": "damped_chirp", "k": 10, "l": 101,
                               "t_end": 2, "n": None}))
    assert main(["generate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    ts = catalog.load_training_csv(tmp_path / "training.csv")
    assert ts.grid.t_end == 2.0


def test_missing_data_source(tmp_path, capsys):
    assert main(["basis", "--out-dir", str(tmp_path)]) == 2
    assert "--input or --family" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_bad_tol(tmp_path, capsys, tol, source):
    if source == "flag":
        args = [*CHIRP, "--tol", tol]
    else:
        cfg = tmp_path / "run.json"
        # json writes a NaN float as the literal NaN, which json.loads reads.
        cfg.write_text(json.dumps({"family": "damped_chirp", "k": 25, "l": 201,
                                   "tol": float(tol)}))
        args = ["--config", str(cfg)]
    assert main(["basis", *args, "--out-dir", str(tmp_path)]) == 2
    assert "tol must be positive" in capsys.readouterr().err
    assert not (tmp_path / "basis.csv").exists()


@pytest.mark.parametrize("args, message", [
    (["--t-start", "1", "--t-end", "0"], "t-end > t-start"),
    (["--sampling", "random", "--seed", "-1"], "seed"),
    (["--param-range", "1:1.0000000000000002"], "too narrow"),
    (["--t-start=-inf", "--t-end", "inf"], "grid endpoints must be finite"),
    (["--t-start=-1e308", "--t-end", "1e308"], "grid spacing inf"),
], ids=["t-range", "negative-seed", "narrow-range", "t-infinite", "t-overflow"])
def test_bad_family_input_exits_2(tmp_path, capsys, args, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic
        assert main(["generate", *CHIRP, *args, "--out-dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_infinite_grid_in_csv_header_exits_2(tmp_path, capsys):
    # An infinite grid once reached the basis build and exited 3 with an
    # infinite roundoff-level residual.
    assert main(["generate", *CHIRP, "--out-dir", str(tmp_path)]) == 0
    path = tmp_path / "training.csv"
    lines = read(path)
    lines[0] = "# emprint-training v1, L=201, t_start=-inf, t_end=inf, d=1"
    path.write_text("\n".join(lines) + "\n")
    assert main(["basis", "--input", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_unknown_sampling_in_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": "damped_chirp", "k": 10, "l": 101,
                               "sampling": "sobol"}))
    assert main(["generate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "sobol" in capsys.readouterr().err


def test_duplicate_parameter_rows_in_csv(tmp_path, capsys):
    assert main(["generate", *CHIRP, "--out-dir", str(tmp_path)]) == 0
    path = tmp_path / "training.csv"
    lines = read(path)
    path.write_text("\n".join(lines + [lines[3]]) + "\n")
    assert main(["basis", "--input", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "row 25 repeats the parameters of row 2" in capsys.readouterr().err


def test_library_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    # Only input errors map to exit 2; a ValueError raised inside the
    # library is a fault and surfaces as a traceback.
    def broken(*args, **kwargs):
        raise ValueError("internal invariant violated")
    monkeypatch.setattr(rbm, "build_reduced_basis", broken)
    with pytest.raises(ValueError, match="internal invariant"):
        main(["basis", *CHIRP, "--out-dir", str(tmp_path)])


def test_corrupt_training_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("garbage\n")
    assert main(["basis", "--input", str(bad), "--out-dir", str(tmp_path)]) == 2


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "emprint", "generate", *CHIRP,
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "training.csv").exists()
