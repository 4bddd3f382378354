"""Command-line driver for the full pipeline.

Commands (the one positional argument; every command takes the same options)
--------
generate        synthesize a training CSV from a named family
basis           build the greedy reduced basis, write basis + error curves
eim             build interpolants for the requested criteria, write JSON
compare         compare the criteria: write reports + curves, print a summary
verify-theorem  check the residual/determinant-ratio identity step by step

Every command reads either a training CSV (--input) or a family spec
(--family/--k/--l ...). Options may come from a single JSON config file
(--config); explicit command-line flags override it, and the environment is
never consulted. Outputs are plain CSV/JSON, plus the binary copies below,
and a rerun with the same configuration reproduces them byte for byte,
whatever the BLAS thread count: ``main`` runs each command with numpy's and
scipy's OpenBLAS at one thread and restores their counts afterwards, on an
error too (see ``_blas``).

The greedy sweep runs once per input: ``basis`` on a training CSV also
writes ``basis.f64``, the basis's binary copy (see ``rbm``), into --out-dir,
and ``eim``, ``compare`` and ``verify-theorem`` on a training CSV read the
basis from the copy in their --out-dir when it may be trusted, and sweep
again when it may not. Only ``basis`` writes the copy, and only from a
training CSV; the copy holds the sweep's exact bits, so every output is the
same whether it was read or swept. Node selection runs once per basis the
same way: ``eim`` on a training CSV at full order (no --n, or --n equal to
the basis size) also writes ``interpolant_<rule>.f64`` per rule (see
``eim``), and ``compare`` on a training CSV takes each rule's full-order
interpolant from that copy when it may be trusted and selects it when not.

A command on a training CSV does not wait for the CSV's SHA-256: it runs
on the digest the parsed copy claims while the hash runs on one worker
thread (see ``catalog.open_training_csv``), computes its results in memory,
and confirms the digest before it writes or prints anything. On a false
claim it drops its results, or the error it raised, and runs again from the
CSV text, so every output and exit code is that of a run without the copy.

Each command writes all of its files or none. A command computes every
file's contents in memory and returns them with its stdout and exit code;
``main`` then commits the files with ``_fileio.commit`` (each to a temp file
beside it, then each renamed over its target) and prints the stdout only
after they are written. An error before the first rename, an output blocked
by a directory included, exits with no file of the command written and
nothing on stdout. There are two exceptions. ``verify-theorem`` exiting 1
still writes ``theorem_check.csv``: the failed check is its result. And a
rename that fails after others succeeded leaves those files renamed; the
error names the one that failed.

Exit codes: 0 success, 1 verification failure, 2 input or configuration
error (an input that cannot be read or an output that cannot be written
included), 3 numerical degeneracy while building the basis, 4 interpolant
construction failure. The CLI checks only what it parses itself (config
types, --criteria, --param-range, paths); the grid, family spec, tolerance,
cap and order are checked by the library where it uses them, so an option
that a command does not read is not checked.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import catalog, diagnostics, eim, rbm
from .catalog import InvalidRange, NonFiniteSample, ParseError, TimeGrid, UnknownFamily
from .eim import SelectionCriterion, SingularVMatrix
from .numerics import ConvergenceFailure
from .rbm import DegenerateResidual
from ._blas import one_thread
from ._fileio import commit, table

THEOREM_TOLERANCE = 1e-7

# The basis's binary copy, written by basis into --out-dir (see rbm).
BASIS_COPY = "basis.f64"

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_INTERPOLANT = 4


# The Python type of each RunConfig annotation's first name; a config-file
# value of a float option may also be an int.
_TYPES = {"str": str, "int": int, "float": float, "bool": bool}


class ConfigError(Exception):
    """Bad or inconsistent command-line/config-file options."""


# The comma list of every node rule, the default of --criteria.
_ALL_CRITERIA = ",".join(c.value for c in SelectionCriterion)


@dataclass
class RunConfig:
    """The options of one run, --config aside. Each field but ``command`` is
    set by the flag ``--<name>`` (with ``-`` for ``_``) and by the config
    key ``<name>``; its annotation gives the value's type and its metadata
    the flag's help and choices."""

    command: str
    input: str | None = field(default=None, metadata={"help": "training CSV path"})
    family: str | None = field(default=None, metadata={"help": "synthetic family name"})
    k: int = field(default=101, metadata={"help": "number of training waveforms"})
    l: int = field(default=catalog.DEFAULT_GRID.n_samples,
                   metadata={"help": "number of time samples"})
    t_start: float = catalog.DEFAULT_GRID.t_start
    t_end: float = catalog.DEFAULT_GRID.t_end
    param_range: str | None = field(default=None, metadata={
        "help": "per-dimension ranges, e.g. '1:50' or '0.2:0.8,0.05:0.2'"})
    sampling: str = field(default="equispaced",
                          metadata={"choices": catalog.SAMPLING_MODES})
    seed: int = 0
    out_dir: str = "."
    tol: float = rbm.DEFAULT_TOL
    n_max: int | None = None
    n: int | None = field(default=None,
                          metadata={"help": "interpolant order (default: basis size)"})
    criteria: str = field(default=_ALL_CRITERIA,
                          metadata={"help": f"comma list from {_ALL_CRITERIA}"})
    embed_matrices: bool = False


# The fields set by a flag or a config key: all but command.
_OPTIONS = fields(RunConfig)[1:]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emprint",
        description="Greedy reduced bases and empirical interpolants for "
                    "parametrized complex time series.",
    )
    parser.add_argument("command", choices=COMMANDS,
                        help="the pipeline stage to run")
    parser.add_argument("--config", help="JSON config file; flags override it")
    # Every flag defaults to None, so that an unset flag leaves the config
    # file's value or the field's default.
    for option in _OPTIONS:
        flag = "--" + option.name.replace("_", "-")
        kind = option.type.split(" | ")[0]
        if kind == "bool":
            parser.add_argument(flag, action="store_true", default=None, **option.metadata)
        else:
            parser.add_argument(flag, type=_TYPES[kind], **option.metadata)
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge precedence: command-line flag > config file > built-in default."""
    file_values = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        if not path.is_file():
            raise ConfigError(f"config path is not a file: {path}")
        try:
            file_values = json.loads(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")

    cfg = RunConfig(command=args.command)
    options = {option.name: option for option in _OPTIONS}
    # Every file value is checked, also one that a flag overrides.
    for key, value in file_values.items():
        if key not in options:
            raise ConfigError(f"unknown config key {key!r}")
        _check_config_value(key, value, options[key].type)
    for option in _OPTIONS:
        cli_value = getattr(args, option.name)
        if cli_value is not None:
            setattr(cfg, option.name, cli_value)
        elif option.name in file_values:
            setattr(cfg, option.name, file_values[option.name])

    # Outputs go under out-dir, created if missing; its nearest existing
    # ancestor must be a directory, or nothing could be written there.
    out_dir = Path(cfg.out_dir)
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"out-dir {out_dir} cannot be a directory: {existing} is not one")
    return cfg


def _check_config_value(key: str, value, annotation: str) -> None:
    """Check a config-file value against its RunConfig annotation, e.g.
    ``"int | None"``. An int is accepted for a float; a bool is never a number."""
    names = annotation.split(" | ")
    if value is None and "None" in names:
        return
    kind = names[0]
    accepted = (int, float) if kind == "float" else _TYPES[kind]
    if not isinstance(value, accepted) or isinstance(value, bool) != (kind == "bool"):
        raise ConfigError(f"config key {key!r} must be {annotation}, got {value!r}")


def _parse_criteria(spec: str) -> tuple[SelectionCriterion, ...]:
    out = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            out.append(SelectionCriterion(token))
        except ValueError:
            raise ConfigError(f"unknown criterion {token!r}; valid: {_ALL_CRITERIA}")
    if not out:
        raise ConfigError("no criteria requested")
    return tuple(dict.fromkeys(out))


def _parse_param_range(text: str) -> tuple[tuple[float, float], ...]:
    ranges = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ConfigError(f"bad range {chunk!r}, expected lo:hi")
        try:
            ranges.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ConfigError(f"bad range {chunk!r}: {exc}") from exc
    return tuple(ranges)


def _family_spec(cfg: RunConfig) -> catalog.FamilySpec:
    param_range = _parse_param_range(cfg.param_range) if cfg.param_range else None
    return catalog.make_family_spec(
        cfg.family, cfg.k, grid=TimeGrid(cfg.t_start, cfg.t_end, cfg.l),
        param_range=param_range, sampling=cfg.sampling, seed=cfg.seed,
    )


def _open_training(cfg: RunConfig):
    """The training set and its ``confirm`` (see ``catalog.open_training_csv``)."""
    if cfg.input is not None:
        path = Path(cfg.input)
        if not path.exists():
            raise ConfigError(f"input file not found: {path}")
        if not path.is_file():
            raise ConfigError(f"input path is not a file: {path}")
        return catalog.open_training_csv(path)
    if cfg.family is not None:
        return catalog.generate_family(_family_spec(cfg)), lambda: True
    raise ConfigError("no data source: pass --input or --family")


def _confirmed(cfg: RunConfig, compute):
    """``compute(ts)`` on the command's training set, returned only once the
    set's digest is confirmed, so that nothing is written or printed on a
    stale copy's claim. On a false claim the result, or the exception
    ``compute`` raised, is discarded and ``compute`` runs again on the set
    parsed from the CSV text. The hash thread is joined on every path."""
    ts, confirm = _open_training(cfg)
    try:
        result = compute(ts)
    except Exception:
        if confirm():
            raise
    else:
        if confirm():
            return result
    finally:
        confirm()  # joins the hash on any other way out too
    return compute(catalog.parse_training_csv(Path(cfg.input)))


def _basis_of(cfg: RunConfig, ts: catalog.TrainingSet) -> rbm.ReducedBasis:
    """The basis of ``ts``: read from the copy in --out-dir when it may be
    trusted, else swept."""
    rb = rbm.load_basis_copy(Path(cfg.out_dir) / BASIS_COPY, ts, cfg.tol, cfg.n_max)
    return rb or rbm.build_reduced_basis(ts, tol=cfg.tol, n_max=cfg.n_max)


# Each command returns its plan, (files, stdout, exit code): the map of each
# path to the bytes or buffers ``_fileio.commit`` writes there, and the text
# ``main`` prints once they are written. No command writes or prints.

def cmd_generate(cfg: RunConfig) -> tuple[dict, str, int]:
    if cfg.family is None:
        raise ConfigError("generate needs --family")
    ts = catalog.generate_family(_family_spec(cfg))
    out = Path(cfg.out_dir) / "training.csv"
    return (catalog.training_files(ts, out),
            f"wrote {out} ({ts.k} waveforms, {ts.grid.n_samples} samples)\n", EXIT_OK)


def cmd_basis(cfg: RunConfig) -> tuple[dict, str, int]:
    ts, rb = _confirmed(cfg, lambda ts: (
        ts, rbm.build_reduced_basis(ts, tol=cfg.tol, n_max=cfg.n_max)))
    out_dir = Path(cfg.out_dir)
    files = {out_dir / "basis.csv": rbm.basis_csv(rb),
             out_dir / "greedy_errors.csv": rbm.greedy_errors_csv(rb)}
    if ts.csv_sha256 is not None:
        files[out_dir / BASIS_COPY] = rbm.basis_copy(rb, ts.csv_sha256, cfg.n_max)
    return files, (f"wrote {out_dir / 'basis.csv'} and {out_dir / 'greedy_errors.csv'} "
                   f"(n={rb.n}, final error {rb.greedy_errors[-1]:.3e})\n"), EXIT_OK


def _interpolants(cfg: RunConfig, ts: catalog.TrainingSet):
    rb = _basis_of(cfg, ts)
    n = rb.n if cfg.n is None else cfg.n
    return ts, rb, n, [eim.build_interpolant(rb, c, n) for c in _parse_criteria(cfg.criteria)]


def cmd_eim(cfg: RunConfig) -> tuple[dict, str, int]:
    ts, rb, n, interpolants = _confirmed(cfg, lambda ts: _interpolants(cfg, ts))
    out_dir = Path(cfg.out_dir)
    files, stdout = {}, ""
    for itp in interpolants:
        path = out_dir / f"interpolant_{itp.criterion.value}.json"
        files[path] = eim.interpolant_json(itp, include_matrices=cfg.embed_matrices)
        if ts.csv_sha256 is not None and n == rb.n:
            files[path.with_suffix(".f64")] = eim.interpolant_copy(itp, ts.csv_sha256,
                                                                   cfg.n_max)
        stdout += f"wrote {path} (n={n})\n"
    return files, stdout, EXIT_OK


def _comparison(cfg: RunConfig, ts: catalog.TrainingSet):
    rb = _basis_of(cfg, ts)
    criteria = _parse_criteria(cfg.criteria)
    dataset_id = Path(cfg.input).name if cfg.input else f"family:{cfg.family}"
    out_dir = Path(cfg.out_dir)
    # Each rule's full-order interpolant: read from eim's copy when it may be
    # trusted, else selected.
    full = [eim.load_interpolant_copy(out_dir / f"interpolant_{c.value}.f64", rb, c,
                                      ts.csv_sha256, cfg.n_max)
            or eim.build_interpolant(rb, c, rb.n) for c in criteria]
    return criteria, diagnostics.run_comparison(rb, ts, full, dataset_id=dataset_id)


def cmd_compare(cfg: RunConfig) -> tuple[dict, str, int]:
    criteria, reports = _confirmed(cfg, lambda ts: _comparison(cfg, ts))
    out_dir = Path(cfg.out_dir)
    files = {out_dir / f"report_{c.value}.json": diagnostics.report_json(reports[c])
             for c in criteria}
    curves = diagnostics.curve_csvs(reports)
    files.update((out_dir / name, data) for name, data in curves.items())
    return files, (f"wrote {len(criteria)} report(s) and {', '.join(curves)} in {out_dir}\n"
                   + _comparison_text(reports, criteria)), EXIT_OK


def _comparison_text(reports, criteria) -> str:
    """Per-order table (kappa_n, lambda_n, worst interp_err_sq per rule) and,
    when the classic rule ran, the classic/other error-ratio summaries."""
    lines = ["", f"{'n':>3} " + " ".join(f"{c.value:>24}" for c in criteria)
             + "   (kappa_n / lambda_n / interp_err_sq)"]
    for recs in zip(*(reports[c].per_n for c in criteria)):
        lines.append(f"{recs[0].n:>3} " + " ".join(
            f"{r.kappa:7.2f} {r.lebesgue:7.2f} {r.max_interp_err_sq:8.2e}" for r in recs))
    classic = reports.get(SelectionCriterion.CLASSIC)
    for other in criteria:
        if classic is None or other is SelectionCriterion.CLASSIC:
            continue
        ratios = np.array(diagnostics.error_ratio_curve(classic, reports[other]))
        finite = ratios[np.isfinite(ratios)]
        summary = (f"min {finite.min():.3f}, max {finite.max():.3f}, "
                   f"geo-mean {np.exp(np.log(finite).mean()):.3f}"
                   if finite.size else "no finite ratio")
        lines.append(f"error ratio classic/{other.value}: {summary}")
    return "".join(line + "\n" for line in lines)


def _discrepancies(cfg: RunConfig, ts: catalog.TrainingSet) -> list[float]:
    rb = _basis_of(cfg, ts)
    return eim.verify_determinant_identity(rb, rb.n if cfg.n is None else cfg.n)


def cmd_verify_theorem(cfg: RunConfig) -> tuple[dict, str, int]:
    discrepancies = _confirmed(cfg, lambda ts: _discrepancies(cfg, ts))
    out = Path(cfg.out_dir) / "theorem_check.csv"
    # max() would drop a NaN that is not first; a NaN step must fail.
    ok = all(d <= THEOREM_TOLERANCE for d in discrepancies)
    worst = (math.nan if any(map(math.isnan, discrepancies))
             else max(discrepancies, default=0.0))
    # A failed check is a result: its table is written, and then it exits 1.
    return ({out: table(["step", "max_rel_discrepancy"], enumerate(discrepancies, start=2))},
            f"wrote {out}; worst step discrepancy {worst:.3e} "
            f"({'pass' if ok else 'FAIL'} at {THEOREM_TOLERANCE:g})\n",
            EXIT_OK if ok else EXIT_VERIFICATION)


COMMANDS = {
    "generate": cmd_generate,
    "basis": cmd_basis,
    "eim": cmd_eim,
    "compare": cmd_compare,
    "verify-theorem": cmd_verify_theorem,
}

# The exit code of each error a command may raise; the first matching row
# wins. Exit 2 is for input errors only: the library checks each argument
# where it uses it and raises InvalidRange when it is out of range, and an
# OSError is an input that cannot be read or an output that cannot be
# written. Any other ValueError from inside the library is a fault, not bad
# input, and surfaces as a traceback.
_EXIT_CODES = (
    ((DegenerateResidual,), EXIT_DEGENERATE),
    ((SingularVMatrix, ConvergenceFailure), EXIT_INTERPOLANT),
    ((ConfigError, UnknownFamily, InvalidRange, ParseError, NonFiniteSample, OSError),
     EXIT_CONFIG),
)


def main(argv=None) -> int:
    """Run one command: commit every file of its plan, all or none, then
    print its stdout and return its exit code. On an error nothing of the
    plan is printed, and the error's one line goes to stderr."""
    args = _build_parser().parse_args(argv)
    try:
        with one_thread():
            files, stdout, code = COMMANDS[args.command](_resolve_config(args))
            commit(files)
    except tuple(cls for classes, _ in _EXIT_CODES for cls in classes) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for classes, code in _EXIT_CODES if isinstance(exc, classes))
    print(stdout, end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
