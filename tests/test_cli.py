import ctypes
import errno
import json
import math
import os
import re
import shutil
import stat
import subprocess
import sys
import threading
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy

from emprint import catalog, cli, diagnostics, eim, rbm
from emprint.cli import RunConfig, main
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


# Helpers that fail, each in place of the script the helper interpreter runs.
# Both run the real helper and pass on its lines: one exits 1 after five
# lines, the other drops the last cell of the first line.
REAL_HELPER = ("import subprocess, sys\n"
               "real = subprocess.Popen([sys.executable, '-I', '-S', {real!r}, *sys.argv[1:]],\n"
               "                        stdin=sys.stdin, stdout=subprocess.PIPE)\n"
               "out = sys.stdout.buffer\n")
BAD_HELPERS = {
    "exits-1": ("for _ in range(5):\n"
                "    out.write(real.stdout.readline())\n"
                "    out.flush()\n"
                "real.kill()\nreal.wait()\nsys.exit(1)\n"),
    "truncated": ("line = real.stdout.readline()\n"
                  "out.write(line[:line.rindex(b',')] + b'\\n')\n"
                  "for line in real.stdout:\n"
                  "    out.write(line)\n"
                  "    out.flush()\n"),
}


@pytest.mark.parametrize("failure", ["cannot-start", *BAD_HELPERS])
def test_a_failed_helper_gives_the_same_bytes(tmp_path, monkeypatch, writers, failure):
    serial, split = tmp_path / "serial", tmp_path / "split"
    writers.cpus = 1
    assert main(["generate", *CHIRP, "--out-dir", str(serial)]) == 0
    writers.cpus, writers.here = 2, 0
    if failure == "cannot-start":
        monkeypatch.setattr(sys, "executable", str(tmp_path / "missing" / "python"))
    else:
        script = tmp_path / "helper.py"
        script.write_text(REAL_HELPER.format(real=catalog._rowtext.__file__)
                          + BAD_HELPERS[failure])
        monkeypatch.setattr(catalog._rowtext, "__file__", str(script))
    writers.delay = 0.02  # so that the helper writes rows too
    assert main(["generate", *CHIRP, "--out-dir", str(split)]) == 0
    # Rows formatted here include those of a block that failed its check.
    assert writers.here + writers.helper == 25
    assert writers.helper == (5 if failure == "exits-1" else 0)
    assert (writers.refused > 0) == (failure == "truncated")
    for name in ("training.csv", "training.csv.f64"):
        assert (split / name).read_bytes() == (serial / name).read_bytes()


@pytest.mark.parametrize("command, case, code, started", [
    ("generate", "written", 0, 1), ("generate", "out-dir-is-a-file", 2, 0),
    ("generate", "csv-blocked", 2, 1), ("basis", "written", 0, 1),
    ("basis", "csv-blocked", 2, 1), ("basis", "all-zero", 3, 0),
])
def test_no_helper_or_thread_outlives_a_command(tmp_path, writers, command, case, code,
                                                 started):
    out, args = tmp_path / "out", CHIRP
    if case == "all-zero":
        _all_zero_training(out)
    elif command == "basis":
        assert main(["generate", *CHIRP, "--out-dir", str(out)]) == 0
    if command == "basis":
        args = ["--input", str(out / "training.csv")]
    if case == "out-dir-is-a-file":
        out.write_text("not a directory\n")
    elif case == "csv-blocked":
        (out / f"{command.replace('generate', 'training')}.csv").mkdir(parents=True)
    before = threading.active_count()
    writers.started = 0
    assert main([command, *args, "--out-dir", str(out)]) == code
    assert writers.started == started
    assert threading.active_count() == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _openblas_controls():
    """(get, set) of the thread count of each OpenBLAS library beside numpy
    and scipy, found here without ``emprint._blas``."""
    controls = []
    for package in (np, scipy):
        root = Path(package.__file__).parent
        for lib in sorted([*root.parent.glob(f"{root.name}.libs/*openblas*"),
                           *root.glob(".dylibs/*openblas*")]):
            dll = ctypes.CDLL(str(lib))
            for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(dll, name):
                    get, set_ = getattr(dll, name), getattr(dll, name.replace("_get_", "_set_"))
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    controls.append((get, set_))
                    break
    return controls


def test_every_command_runs_on_one_blas_thread_and_restores_the_count(
        tmp_path, monkeypatch, capsys):
    libraries = _openblas_controls()
    if not libraries:
        pytest.skip("no OpenBLAS library with a thread-count getter beside numpy or scipy")

    def counts():
        return [get() for get, _ in libraries]
    before, inside = counts(), []

    def planted(cfg):
        inside.append(counts())
        if cfg.input is not None:
            raise catalog.ParseError("line 1: planted")
        return {}, "", 0
    out = ["--out-dir", str(tmp_path)]
    try:
        for _, set_ in libraries:  # a count other than 1, so that a restore shows
            set_(2)
        assert main(["generate", *CHIRP, *out]) == 0
        assert counts() == [2] * len(libraries)
        assert main(["basis", "--input", str(tmp_path / "missing.csv"), *out]) == 2
        assert counts() == [2] * len(libraries)
        monkeypatch.setitem(cli.COMMANDS, "eim", planted)
        assert main(["eim", *CHIRP, *out]) == 0
        assert counts() == [2] * len(libraries)
        assert main(["eim", "--input", str(tmp_path / "training.csv"), *out]) == 2
        assert counts() == [2] * len(libraries)
    finally:
        for (_, set_), count in zip(libraries, before):
            set_(count)
    assert inside == [[1] * len(libraries)] * 2
    assert capsys.readouterr().err.count("error:") == 2


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


# An earlier run in the out-dir, with other criteria than the runs blocked below.
EARLIER_RUN = (["basis"], ["eim", "--criteria", "classic"], ["compare", "--criteria", "classic"],
               ["verify-theorem"])
ALL_RULES = ["--criteria", "classic,kappa,lambda"]


def _snapshot(path):
    """Each name in ``path`` with its bytes (None for a directory)."""
    return {p.name: None if p.is_dir() else p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("args, artifact, blocker", [
    (["generate", *CHIRP], "training.csv", "directory"),
    (["basis"], "basis.csv", "directory"),
    (["eim", *ALL_RULES], "interpolant_lambda.json", "directory"),
    (["compare", *ALL_RULES], "errors.csv", "directory"),
    (["verify-theorem"], "theorem_check.csv", "directory"),
    # The rename of the second file fails, after that of the first.
    (["eim", *ALL_RULES], "interpolant_classic.f64", "rename"),
], ids=["generate", "basis-input", "eim-input", "compare-input", "verify-theorem-input",
        "eim-second-rename"])
def test_output_blocked_by_directory_exits_2(tmp_path, capsys, monkeypatch, args, artifact,
                                             blocker):
    # An output that cannot be written is bad input, not a failed verification,
    # and the command writes no file and prints nothing: the out-dir keeps the
    # earlier run's files and bytes.
    out = tmp_path / "out"
    csv = out / "training.csv"
    assert main(["generate", *CHIRP, "--out-dir", str(out)]) == 0
    for cmd in EARLIER_RUN:
        assert main([*cmd, "--input", str(csv), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    if blocker == "directory":
        (out / artifact).unlink(missing_ok=True)
        (out / artifact).mkdir()
    else:
        replace, targets = os.replace, []

        def fail_second(src, dst):
            targets.append(dst)
            if len(targets) == 2:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), src, None, dst)
            replace(src, dst)
        monkeypatch.setattr(os, "replace", fail_second)
    before = _snapshot(out)
    source = [] if args[0] == "generate" else ["--input", str(csv)]
    assert main([*args, *source, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"'{out / artifact}'" in captured.err
    assert ".tmp" not in captured.err  # the temp file is gone; only the artifact is named
    assert _snapshot(out) == before
    if blocker == "rename":
        # The first file was renamed, and that is not undone; it holds the
        # bytes of the earlier run's, which had the classic rule too.
        assert [Path(target).name for target in targets] == [
            "interpolant_classic.json", "interpolant_classic.f64"]


def test_basis_from_ingested_csv(tmp_path):
    assert main(["generate", *CHIRP, "--out-dir", str(tmp_path)]) == 0
    code = main(["basis", "--input", str(tmp_path / "training.csv"),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "basis.csv", "basis.f64", "greedy_errors.csv", "training.csv", "training.csv.f64"]


# ---------------------------------------------------------------------------
# The basis copy
# ---------------------------------------------------------------------------

LATER_COMMANDS = (
    ["eim", "--criteria", "classic,lambda", "--n", "5", "--embed-matrices"],
    ["compare", "--criteria", "classic,kappa"],
    ["verify-theorem"],
)


@pytest.fixture
def sweeps(monkeypatch):
    """Counts the calls of rbm.build_reduced_basis."""
    calls = []
    sweep = rbm.build_reduced_basis

    def counted(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)
    monkeypatch.setattr(rbm, "build_reduced_basis", counted)
    return calls


def _pipeline_dir(path, *options):
    """generate and basis in ``path``; returns the training CSV."""
    assert main(["generate", *CHIRP, "--out-dir", str(path)]) == 0
    csv = path / "training.csv"
    assert main(["basis", "--input", str(csv), *options, "--out-dir", str(path)]) == 0
    return csv


def _run_later(path, *options):
    """eim, compare and verify-theorem on the CSV in ``path``; their exit codes."""
    return [main([*cmd, "--input", str(path / "training.csv"), *options,
                  "--out-dir", str(path)]) for cmd in LATER_COMMANDS]


def _artifacts(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())
            if p.suffix in (".csv", ".json")}


def _without_copy(tmp_path, src, *copies):
    """A directory holding the files of ``src`` except ``copies`` (patterns;
    the basis copy when none is given)."""
    out = tmp_path / "without-copy"
    shutil.copytree(src, out, ignore=shutil.ignore_patterns(*copies or ["basis.f64"]))
    return out


def test_later_commands_read_the_copy_and_sweep_never(tmp_path, sweeps):
    a = tmp_path / "a"
    _pipeline_dir(a)
    b = _without_copy(tmp_path, a)
    assert len(sweeps) == 1  # basis
    assert _run_later(a) == [0, 0, 0]
    assert len(sweeps) == 1
    assert _run_later(b) == [0, 0, 0]
    assert len(sweeps) == 4
    assert not (b / "basis.f64").exists()
    assert _artifacts(a) == _artifacts(b)


def _rewrite(path, damage):
    header, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(b"".join(damage(header + b"\n", payload)))


def _break_orthonormality(header, payload):
    values = np.frombuffer(payload, dtype="<f8").copy()
    values[-1] *= 2.0  # one basis value; the header and size still match
    return header, values.tobytes()


def _zero_code(header, payload):
    return re.sub(rb"code=[0-9a-f]{64}", b"code=" + b"0" * 64, header), payload


COPY_DAMAGE = {
    "edited-csv": lambda d: (d / "training.csv").write_bytes(
        (d / "training.csv").read_bytes() + b"\n"),  # a blank line: same data
    "another-tol": None,
    "another-n-max": None,
    "code-field": lambda d: _rewrite(d / "basis.f64", _zero_code),
    "truncated": lambda d: _rewrite(d / "basis.f64", lambda h, p: (h, p[:-8])),
    "foreign-header": lambda d: shutil.copyfile(d / "training.csv.f64", d / "basis.f64"),
    "not-orthonormal": lambda d: _rewrite(d / "basis.f64", _break_orthonormality),
}
LATER_OPTIONS = {"another-tol": ["--tol", "1e-8"], "another-n-max": ["--n-max", "6"]}


@pytest.mark.parametrize("case", COPY_DAMAGE)
def test_an_untrusted_copy_falls_back_to_the_sweep(tmp_path, sweeps, capsys, case):
    a = tmp_path / "a"
    _pipeline_dir(a)
    if COPY_DAMAGE[case] is not None:
        COPY_DAMAGE[case](a)
    copy = (a / "basis.f64").read_bytes()
    b = _without_copy(tmp_path, a)
    options = LATER_OPTIONS.get(case, [])
    del sweeps[:]
    capsys.readouterr()
    assert _run_later(a, *options) == [0, 0, 0]
    assert len(sweeps) == 3
    with_copy = capsys.readouterr()
    assert _run_later(b, *options) == [0, 0, 0]
    without_copy = capsys.readouterr()
    assert without_copy.out == with_copy.out.replace(str(a), str(b))
    assert without_copy.err == with_copy.err == ""
    assert _artifacts(a) == _artifacts(b)
    assert (a / "basis.f64").read_bytes() == copy  # never written nor repaired


def test_family_runs_neither_write_nor_read_a_copy(tmp_path, sweeps):
    assert main(["basis", *CHIRP, "--out-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["basis.csv", "greedy_errors.csv"]
    # A trusted copy of the same data beside a --family run is not read.
    _pipeline_dir(tmp_path)
    del sweeps[:]
    for cmd in LATER_COMMANDS:
        assert main([*cmd, *CHIRP, "--out-dir", str(tmp_path)]) == 0
    assert len(sweeps) == 3


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_basis_copy_respects_umask(tmp_path, umask, mode):
    assert main(["generate", *CHIRP, "--out-dir", str(tmp_path)]) == 0
    old = os.umask(umask)
    try:
        assert main(["basis", "--input", str(tmp_path / "training.csv"),
                     "--out-dir", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "basis.f64").stat().st_mode) == mode


# ---------------------------------------------------------------------------
# The node copies
# ---------------------------------------------------------------------------

ALL_RULES = ["--criteria", "classic,kappa,lambda"]


@pytest.fixture
def builds(monkeypatch):
    """Counts the calls of eim.build_interpolant."""
    calls = []
    build = eim.build_interpolant

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)
    monkeypatch.setattr(eim, "build_interpolant", counted)
    return calls


def _node_dir(path, *eim_options):
    """generate, basis and eim (every rule) in ``path``."""
    csv = _pipeline_dir(path)
    assert main(["eim", "--input", str(csv), *ALL_RULES, *eim_options,
                 "--out-dir", str(path)]) == 0


def _compare(path, *options):
    return main(["compare", "--input", str(path / "training.csv"), *ALL_RULES, *options,
                 "--out-dir", str(path)])


def _copies(path):
    return {p.name: p.read_bytes() for p in sorted(path.glob("*.f64"))}


def test_compare_reads_the_node_copies_and_builds_never(tmp_path, builds):
    a = tmp_path / "a"
    _node_dir(a)
    assert sorted(p.name for p in a.glob("interpolant_*.f64")) == [
        "interpolant_classic.f64", "interpolant_kappa.f64", "interpolant_lambda.f64"]
    b = _without_copy(tmp_path, a, "interpolant_*.f64")
    del builds[:]
    assert _compare(a) == 0
    assert len(builds) == 0
    assert _compare(b) == 0
    assert len(builds) == 3
    assert _artifacts(a) == _artifacts(b)


def _on_node_copies(damage):
    """Applies ``damage`` (as for ``_rewrite``) to every node copy."""
    return lambda d: [_rewrite(p, damage) for p in d.glob("interpolant_*.f64")]


def _second_node(value):
    """Damage that sets the node of step 2 to ``value``, None for step 1's."""
    def damage(header, payload):
        steps = np.frombuffer(payload, dtype="<f8").reshape(-1, 6).copy()
        steps[1, 0] = steps[0, 0] if value is None else value
        return header, steps.tobytes()
    return damage


def _rotate_rules(d):
    """Each rule's copy moves to the next rule's name."""
    paths = [d / f"interpolant_{rule}.f64" for rule in ("classic", "kappa", "lambda")]
    data = [p.read_bytes() for p in paths]
    for path, other in zip(paths, data[-1:] + data[:-1]):
        path.write_bytes(other)


NODE_COPY_DAMAGE = {
    "edited-csv": COPY_DAMAGE["edited-csv"],
    "another-tol": None,
    "another-n-max": None,
    "eim-below-full-order": None,
    "renamed-rule": _rotate_rules,
    "truncated": _on_node_copies(lambda h, p: (h, p[:-8])),
    "repeated-node": _on_node_copies(_second_node(None)),
    "out-of-range-node": _on_node_copies(_second_node(201.0)),  # L, one past the grid
    "code-field": _on_node_copies(_zero_code),
}


@pytest.mark.parametrize("case", NODE_COPY_DAMAGE)
def test_an_untrusted_node_copy_falls_back_to_the_build(tmp_path, builds, capsys, case):
    a = tmp_path / "a"
    _node_dir(a, *(["--n", "4"] if case == "eim-below-full-order" else []))
    if NODE_COPY_DAMAGE[case] is not None:
        NODE_COPY_DAMAGE[case](a)
    copies = _copies(a)
    assert ("interpolant_kappa.f64" in copies) == (case != "eim-below-full-order")
    b = _without_copy(tmp_path, a, "interpolant_*.f64")
    options = LATER_OPTIONS.get(case, [])
    del builds[:]
    capsys.readouterr()
    assert _compare(a, *options) == 0
    assert len(builds) == 3
    with_copy = capsys.readouterr()
    assert _compare(b, *options) == 0
    without_copy = capsys.readouterr()
    assert without_copy.out == with_copy.out.replace(str(a), str(b))
    assert without_copy.err == with_copy.err == ""
    assert _artifacts(a) == _artifacts(b)
    assert _copies(a) == copies  # never written nor repaired


def test_family_runs_neither_write_nor_read_a_node_copy(tmp_path, builds):
    assert main(["eim", *CHIRP, *ALL_RULES, "--out-dir", str(tmp_path)]) == 0
    assert not list(tmp_path.glob("*.f64"))
    # Trusted copies of the same data beside a --family run are not read.
    _node_dir(tmp_path)
    del builds[:]
    assert main(["compare", *CHIRP, *ALL_RULES, "--out-dir", str(tmp_path)]) == 0
    assert len(builds) == 3


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_node_copy_respects_umask(tmp_path, umask, mode):
    csv = _pipeline_dir(tmp_path)
    old = os.umask(umask)
    try:
        assert main(["eim", "--input", str(csv), "--criteria", "lambda",
                     "--out-dir", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "interpolant_lambda.f64").stat().st_mode) == mode


def test_copies_written_under_another_blas_kernel_are_not_read(tmp_path, sweeps, builds):
    # OPENBLAS_CORETYPE picks numpy's and scipy's OpenBLAS kernel for one
    # process; another kernel gives other basis and kappa bits, so copies
    # keyed under it must be refused.
    a = tmp_path / "a"
    assert main(["generate", *CHIRP, "--out-dir", str(a)]) == 0
    csv = str(a / "training.csv")
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(rbm.__file__).parents[1]),
                                                      os.environ.get("PYTHONPATH")]))}
    for cmd in (["basis"], ["eim", *ALL_RULES]):
        subprocess.run([sys.executable, "-m", "emprint", *cmd, "--input", csv,
                        "--out-dir", str(a)], env=env, check=True, capture_output=True)
    fresh = rbm.build_reduced_basis(catalog.load_training_csv(a / "training.csv"))
    if (a / "basis.f64").read_bytes().endswith(fresh.basis.tobytes()):
        pytest.skip("the Prescott kernel sweeps to this process's bits")
    b = _without_copy(tmp_path, a, "basis.f64", "interpolant_*.f64")
    del sweeps[:], builds[:]
    for d in (a, b):
        assert _compare(d) == 0
        for cmd in (["eim", *ALL_RULES], ["verify-theorem"]):
            assert main([*cmd, "--input", str(d / "training.csv"), "--out-dir", str(d)]) == 0
    assert (len(sweeps), len(builds)) == (6, 12)
    assert _artifacts(a) == _artifacts(b)


# ---------------------------------------------------------------------------
# A stale parsed copy: a command runs on the digest the copy claims and
# confirms it before it writes or prints anything
# ---------------------------------------------------------------------------

STALE_PIPELINE = (
    ["basis", "--tol", "1e-12"],
    ["eim", *ALL_RULES, "--embed-matrices"],
    ["compare", *ALL_RULES],
    ["verify-theorem"],
)


def _edit_one_digit(csv):
    """Change the last digit of the first sample's real part; the parsed copy
    beside the CSV keeps the old digest."""
    header, first, rest = csv.read_text().split("\n", 2)
    param, sample, cells = first.split(",", 2)
    re_part, im_part = sample.split(":")
    re_part = re_part[:-1] + str((int(re_part[-1]) + 1) % 10)
    csv.write_text("\n".join([header, ",".join([param, f"{re_part}:{im_part}", cells]), rest]))


def _stale_claim_dirs(tmp_path):
    """Two generated directories with one sample digit edited, the parsed
    copy kept in the first and deleted in the second."""
    dirs = tmp_path / "stale", tmp_path / "fresh"
    for d in dirs:
        assert main(["generate", *CHIRP, "--out-dir", str(d)]) == 0
        _edit_one_digit(d / "training.csv")
    (dirs[1] / "training.csv.f64").unlink()
    return dirs


def _same_run(dirs, cmd, capsys):
    """Run ``cmd`` on both directories; assert equal exit codes, output and
    artifacts, and return the exit code."""
    runs = []
    for d in dirs:
        capsys.readouterr()
        code = main([*cmd, "--input", str(d / "training.csv"), "--out-dir", str(d)])
        out, err = capsys.readouterr()
        runs.append((code, out.replace(str(d), "<dir>"), err.replace(str(d), "<dir>"),
                     _artifacts(d)))
    assert runs[0] == runs[1]
    return runs[0][0]


def test_a_stale_copy_gives_the_outputs_of_a_run_without_it(tmp_path, sweeps, capsys):
    stale, fresh = _stale_claim_dirs(tmp_path)
    copy = (stale / "training.csv.f64").read_bytes()
    # The copy is read on its claim: it still holds the unedited sample.
    ts, confirm = catalog.open_training_csv(stale / "training.csv")
    assert not confirm()
    text = catalog.load_training_csv(stale / "training.csv")
    assert ts.samples[0, 0] != text.samples[0, 0]
    for cmd in STALE_PIPELINE:
        del sweeps[:]
        assert _same_run((stale, fresh), cmd, capsys) == 0
        if cmd[0] == "basis":
            # Two in the stale directory, on the claim and from the text.
            assert len(sweeps) == 3
    assert (stale / "training.csv.f64").read_bytes() == copy


def _stale_copy_of(csv, damage):
    """Overwrite the parsed copy beside ``csv`` with its values damaged in
    place, under a header that claims another CSV's digest."""
    copy = csv.with_name(csv.name + ".f64")
    header, payload = copy.read_bytes().split(b"\n", 1)
    values = np.frombuffer(payload, dtype="<f8").reshape(25, -1).copy()  # CHIRP: --k 25
    damage(values)
    copy.write_bytes(re.sub(rb"sha256=[0-9a-f]{64}", b"sha256=" + b"0" * 64, header)
                     + b"\n" + values.tobytes())


@pytest.mark.parametrize("damage", [
    lambda v: v.__setitem__((3, 7), np.nan),
    lambda v: v.__setitem__((1, 0), v[0, 0]),
    # Checks pass, then the sweep on the claim raises DegenerateResidual.
    lambda v: v.__setitem__((slice(None), slice(1, None)), 0.0),
], ids=["nan", "repeated-row", "all-zero"])
def test_a_stale_copy_that_fails_gives_the_texts_results(tmp_path, capsys, damage):
    a = tmp_path / "a"
    assert main(["generate", *CHIRP, "--out-dir", str(a)]) == 0
    _stale_copy_of(a / "training.csv", damage)
    b = _without_copy(tmp_path, a, "training.csv.f64")
    for cmd in (["basis"], ["verify-theorem"]):
        assert _same_run((a, b), cmd, capsys) == 0


def _repeat_first_parameter(csv):
    """Give the CSV's second row the parameters of its first."""
    lines = read(csv)
    lines[2] = lines[1].split(",", 1)[0] + "," + lines[2].split(",", 1)[1]
    csv.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("command", ["basis", "eim", "compare", "verify-theorem"])
def test_a_valid_stale_copy_beside_a_repeated_row_exits_2(tmp_path, capsys, command):
    a = tmp_path / "a"
    assert main(["generate", *CHIRP, "--out-dir", str(a)]) == 0
    _repeat_first_parameter(a / "training.csv")
    b = _without_copy(tmp_path, a, "training.csv.f64")
    assert _same_run((a, b), [command], capsys) == 2
    assert sorted(p.name for p in a.iterdir()) == ["training.csv", "training.csv.f64"]
    assert main([command, "--input", str(b / "training.csv"), "--out-dir", str(b)]) == 2
    assert ("error: waveform row 1 repeats the parameters of row 0"
            in capsys.readouterr().err)


def _all_zero_training(d):
    d.mkdir()
    catalog.save_training_csv(catalog.TrainingSet(
        catalog.TimeGrid(0.0, 1.0, 5), np.array([[1.0], [2.0], [3.0]]),
        np.zeros((3, 5), dtype=complex)), d / "training.csv")


NO_THREAD_LEFT = {
    "ok": (0, lambda d, mp: None, "verify-theorem"),
    "verification": (1, lambda d, mp: mp.setattr(eim, "verify_determinant_identity",
                                                  lambda rb, n: [math.nan]), "verify-theorem"),
    "input-error": (2, lambda d, mp: _repeat_first_parameter(d / "training.csv"), "eim"),
    "output-error": (2, lambda d, mp: (d / "theorem_check.csv").mkdir(), "verify-theorem"),
    "degenerate": (3, None, "basis"),
}


@pytest.mark.parametrize("case", NO_THREAD_LEFT)
def test_no_thread_outlives_main(tmp_path, monkeypatch, case):
    code, prepare, command = NO_THREAD_LEFT[case]
    d = tmp_path / "d"
    if prepare is None:
        _all_zero_training(d)
    else:
        assert main(["generate", *CHIRP, "--out-dir", str(d)]) == 0
        prepare(d, monkeypatch)
    started = []
    hash_in_background = catalog._hash_in_background
    monkeypatch.setattr(catalog, "_hash_in_background",
                        lambda path: started.append(path) or hash_in_background(path))
    before = threading.active_count()
    assert main([command, "--input", str(d / "training.csv"), "--out-dir", str(d)]) == code
    assert threading.active_count() == before
    assert len(started) >= 1


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


@pytest.mark.parametrize("command", ["basis", "eim", "compare", "verify-theorem"])
def test_all_zero_training_exits_3(tmp_path, capsys, command):
    # The largest waveform has zero norm: the seed itself is degenerate.
    path = tmp_path / "training.csv"
    rows = [",".join([f"{k}.0"] + ["0.0:0.0"] * 5) for k in (1, 2, 3)]
    path.write_text("# emprint-training v1, L=5, t_start=0.0, t_end=1.0, d=1\n"
                    + "\n".join(rows) + "\n")
    code = main([command, "--input", str(path), "--out-dir", str(tmp_path)])
    assert code == 3
    assert "error: residual at step 1 is at roundoff level" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["training.csv"]


@pytest.mark.parametrize("command", ["eim", "compare"])
def test_singular_interpolant_exits_4(tmp_path, monkeypatch, capsys, command):
    # cli builds every interpolant through eim.build_interpolant; a --family
    # run has no copy to read in its place.
    def singular(*args, **kwargs):
        raise eim.SingularVMatrix("node-value matrix is singular at step 2")
    monkeypatch.setattr(eim, "build_interpolant", singular)
    code = main([command, *CHIRP, "--out-dir", str(tmp_path)])
    assert code == 4
    assert "error: node-value matrix is singular at step 2" in capsys.readouterr().err


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


# A value of another type than each RunConfig annotation.
WRONG_TYPE = {"str": 5, "str | None": 5, "int": 1.5, "int | None": "3", "float": "2",
              "bool": "yes"}

# A value other than the default of each RunConfig field but command.
OPTION_VALUES = {"input": "data.csv", "family": "gaussian_packet", "k": 7, "l": 9,
                 "t_start": -1.5, "t_end": 2.5, "param_range": "1:2", "sampling": "random",
                 "seed": 3, "out_dir": "out", "tol": 1e-3, "n_max": 4, "n": 2,
                 "criteria": "kappa", "embed_matrices": True}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("option", fields(RunConfig)[1:], ids=lambda option: option.name)
def test_every_option_is_a_flag_and_a_config_key(tmp_path, monkeypatch, option, source):
    value = OPTION_VALUES[option.name]
    assert value != option.default
    if source == "flag":
        flag = "--" + option.name.replace("_", "-")
        args = [flag] if value is True else [f"{flag}={value}"]
    else:
        (tmp_path / "run.json").write_text(json.dumps({option.name: value}))
        args = ["--config", str(tmp_path / "run.json")]
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "generate", lambda cfg: seen.append(cfg) or ({}, "", 0))
    assert main(["generate", *args]) == 0
    assert seen == [replace(RunConfig("generate"), **{option.name: value})]


@pytest.mark.parametrize("command, values, flags", [
    ("eim", {"criteria": 5}, []),
    ("verify-theorem", {"n": "3"}, []),
    ("eim", {"embed_matrices": "yes"}, []),
    ("generate", {"k": True}, []),
    ("generate", {"k": None}, []),
    ("generate", {"t_end": "2"}, []),
    ("basis", {"tol": False}, []),
    *[("generate", {option.name: WRONG_TYPE[option.type]}, [])
      for option in fields(RunConfig)[1:]],
    # A flag overriding the value does not excuse it.
    ("generate", {"out_dir": 5}, ["--out-dir", "x"]),
    ("generate", {"k": "ten"}, ["--k", "10"]),
    ("eim", {"embed_matrices": "yes"}, ["--embed-matrices"]),
], ids=["criteria-int", "n-str", "embed_matrices-str", "k-bool", "k-null",
        "t_end-str", "tol-bool",
        *[f"field-{option.name}" for option in fields(RunConfig)[1:]],
        "out_dir-int-under-flag", "k-str-under-flag", "embed_matrices-str-under-flag"])
def test_config_value_of_wrong_type(tmp_path, monkeypatch, capsys, command, values, flags):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": "damped_chirp", "k": 10, "l": 101, **values}))
    assert main([command, "--config", str(cfg), *flags]) == 2
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
    (["--t-start", "1", "--t-end", "0"], "t_end > t_start"),
    (["--sampling", "random", "--seed", "-1"], "seed"),
    (["--param-range", "1:1.0000000000000002"], "too narrow"),
    (["--t-start=-inf", "--t-end", "inf"], "grid endpoints must be finite"),
    (["--t-start=-1e308", "--t-end", "1e308"], "grid spacing inf"),
    (["--param-range", "1:inf"], "finite endpoints and width"),
    (["--param-range", "1:inf", "--sampling", "random"], "finite endpoints and width"),
    (["--param-range=-1e308:1e308"], "finite endpoints and width"),
    (["--param-range=-1e308:1e308", "--sampling", "random"], "finite endpoints and width"),
], ids=["t-range", "negative-seed", "narrow-range", "t-infinite", "t-overflow",
        "param-infinite", "param-infinite-random", "param-overflow",
        "param-overflow-random"])
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


def test_library_length_mismatch_is_not_a_config_error(tmp_path, monkeypatch):
    # The reader fixes every row's length, so a LengthMismatch from inside
    # the library is a shape fault, not bad input.
    def broken(*args, **kwargs):
        raise catalog.LengthMismatch("internal shape fault")
    monkeypatch.setattr(diagnostics, "run_comparison", broken)
    with pytest.raises(catalog.LengthMismatch, match="internal shape fault"):
        main(["compare", *CHIRP, "--out-dir", str(tmp_path)])


TRAINING_HEADER = "# emprint-training v1, L=2, t_start=0.0, t_end=1.0, d={d}{extra}\n"
BAD_INPUTS = {
    "k-0": (["generate", "--family", "damped_chirp", "--k", "0"], "n_params must be >= 1"),
    "l-1": (["generate", "--family", "damped_chirp", "--l", "1"], "at least 2 samples"),
    "n-above-basis": (["eim", *CHIRP, "--n", "99"], "order 99 outside 1.."),
    "n-0": (["verify-theorem", *CHIRP, "--n", "0"], "order 0 outside 1.."),
    "n-max-0": (["basis", *CHIRP, "--n-max", "0"], "n_max must be >= 1"),
    "config-missing": (["basis", *CHIRP, "--config", "{tmp}/missing.json"],
                       "config file not found"),
    "config-list": (["basis", *CHIRP, "--config", "{tmp}/list.json"], "a JSON object"),
    "criteria-empty": (["eim", *CHIRP, "--criteria", ","], "no criteria requested"),
    "range-dash": (["generate", *CHIRP, "--param-range", "1-50"], "bad range '1-50'"),
    "range-words": (["generate", *CHIRP, "--param-range", "a:b"], "bad range 'a:b'"),
    "no-family": (["generate", "--k", "5"], "generate needs --family"),
    "csv-empty": ("", "line 1: empty file"),
    "csv-no-rows": (TRAINING_HEADER.format(d=1, extra=""), "line 2: file contains no"),
    "csv-d-0": (TRAINING_HEADER.format(d=0, extra="") + "0.5:0.5,0.0:0.0\n",
                "training files need d >= 1"),
    "csv-field-without-=": (TRAINING_HEADER.format(d=1, extra=", kind")
                            + "1.0,0.5:0.5,0.0:0.0\n", "malformed header field 'kind'"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_2_and_writes_nothing(tmp_path, capsys, case):
    args, message = BAD_INPUTS[case]
    if isinstance(args, str):  # a training CSV's text
        (tmp_path / "training.csv").write_text(args)
        args = ["basis", "--input", "{tmp}/training.csv"]
    (tmp_path / "list.json").write_text("[1, 2]")
    out = tmp_path / "out"
    args = [arg.format(tmp=tmp_path) for arg in args]
    assert main([*args, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("command, args", [
    ("generate", [*CHIRP, "--tol", "nan", "--n-max", "0", "--n", "0"]),
    ("basis", ["--input", "{tmp}/training.csv", "--seed", "-1", "--k", "0", "--l", "1",
               "--sampling", "random"]),
], ids=["generate-ignores-basis-options", "input-ignores-family-options"])
def test_options_a_command_does_not_read_are_not_checked(tmp_path, command, args):
    assert main(["generate", *CHIRP, "--out-dir", str(tmp_path)]) == 0
    args = [arg.format(tmp=tmp_path) for arg in args]
    assert main([command, *args, "--out-dir", str(tmp_path / "out")]) == 0


def test_corrupt_training_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("garbage\n")
    assert main(["basis", "--input", str(bad), "--out-dir", str(tmp_path)]) == 2


def test_non_utf8_training_csv_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"# emprint-training v1, L=2, t_start=0.0, t_end=1.0, d=1\n"
                    b"1.0,0.5:0.5,0.0:0.0\n\n2.0,0.5:0.5,0.0:0.\xff\n")
    assert main(["basis", "--input", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert "error: line 4: not valid UTF-8" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"family": "damped_chirp\xff"}')
    assert main(["generate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "error: config file is not valid JSON" in capsys.readouterr().err


HELP = """\
usage: emprint [-h] [--config CONFIG] [--input INPUT] [--family FAMILY]
               [--k K] [--l L] [--t-start T_START] [--t-end T_END]
               [--param-range PARAM_RANGE] [--sampling {equispaced,random}]
               [--seed SEED] [--out-dir OUT_DIR] [--tol TOL] [--n-max N_MAX]
               [--n N] [--criteria CRITERIA] [--embed-matrices]
               {generate,basis,eim,compare,verify-theorem}

Greedy reduced bases and empirical interpolants for parametrized complex time
series.

positional arguments:
  {generate,basis,eim,compare,verify-theorem}
                        the pipeline stage to run

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON config file; flags override it
  --input INPUT         training CSV path
  --family FAMILY       synthetic family name
  --k K                 number of training waveforms
  --l L                 number of time samples
  --t-start T_START
  --t-end T_END
  --param-range PARAM_RANGE
                        per-dimension ranges, e.g. '1:50' or
                        '0.2:0.8,0.05:0.2'
  --sampling {equispaced,random}
  --seed SEED
  --out-dir OUT_DIR
  --tol TOL
  --n-max N_MAX
  --n N                 interpolant order (default: basis size)
  --criteria CRITERIA   comma list from classic,kappa,lambda
  --embed-matrices
"""


@pytest.mark.parametrize("args", [["--help"], ["eim", "--help"]], ids=["top", "eim"])
def test_help_is_unchanged(monkeypatch, capsys, args):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(args)
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == HELP


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "emprint", "generate", *CHIRP,
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "training.csv").exists()
