"""Command-line driver for the full pipeline.

Subcommands
-----------
generate        synthesize a training CSV from a named family
basis           build the greedy reduced basis, write basis + error curves
eim             build interpolants for the requested criteria, write JSON
compare         compare the criteria: write reports + curves, print a summary
verify-theorem  check the residual/determinant-ratio identity step by step

Every command reads either a training CSV (--input) or a family spec
(--family/--k/--l ...). Options may come from a single JSON config file
(--config); explicit command-line flags override it, and the environment is
never consulted. All outputs are plain CSV/JSON written atomically, and a
rerun with the same configuration reproduces them byte for byte.

Exit codes: 0 success, 1 verification failure, 2 input or configuration
error, 3 numerical degeneracy while building the basis, 4 interpolant
construction failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import catalog, diagnostics, eim, rbm
from .catalog import (InvalidRange, LengthMismatch, NonFiniteSample, ParseError,
                      TimeGrid, UnknownFamily)
from .eim import SelectionCriterion, SingularVMatrix
from .numerics import ConvergenceFailure
from .rbm import DegenerateResidual, EmptyTraining
from ._fileio import atomic_write_text, fmt_float

THEOREM_TOLERANCE = 1e-7

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_INTERPOLANT = 4


# Python types a config-file value may have, by RunConfig annotation.
_CONFIG_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool}


class ConfigError(Exception):
    """Bad or inconsistent command-line/config-file options."""


@dataclass
class RunConfig:
    command: str
    input: str | None = None
    family: str | None = None
    k: int = 101
    l: int = 1001
    t_start: float = 0.0
    t_end: float = 1.0
    param_range: str | None = None
    sampling: str = "equispaced"
    seed: int = 0
    out_dir: str = "."
    tol: float = rbm.DEFAULT_TOL
    n_max: int | None = None
    n: int | None = None
    criteria: str = "classic,kappa,lambda"
    first_node_variant: bool = False
    embed_matrices: bool = False


def _add_common_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--input", help="training CSV path")
    p.add_argument("--family", help="synthetic family name")
    p.add_argument("--k", type=int, help="number of training waveforms")
    p.add_argument("--l", type=int, help="number of time samples")
    p.add_argument("--t-start", type=float, dest="t_start")
    p.add_argument("--t-end", type=float, dest="t_end")
    p.add_argument("--param-range", dest="param_range",
                   help="per-dimension ranges, e.g. '1:50' or '0.2:0.8,0.05:0.2'")
    p.add_argument("--sampling", choices=catalog.SAMPLING_MODES)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--tol", type=float)
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--n", type=int, help="interpolant order (default: basis size)")
    p.add_argument("--criteria", help="comma list from classic,kappa,lambda")
    p.add_argument("--first-node-variant", action="store_true", default=None,
                   dest="first_node_variant")
    p.add_argument("--embed-matrices", action="store_true", default=None,
                   dest="embed_matrices")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emprint",
        description="Greedy reduced bases and empirical interpolants for "
                    "parametrized complex time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("generate", "write a synthetic training CSV"),
        ("basis", "build the reduced basis and greedy error curve"),
        ("eim", "build empirical interpolants"),
        ("compare", "compare node-selection criteria"),
        ("verify-theorem", "check the residual/determinant-ratio identity"),
    ]:
        p = sub.add_parser(name, help=doc)
        _add_common_options(p)
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
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")

    cfg = RunConfig(command=args.command)
    annotations = {f.name: f.type for f in fields(RunConfig) if f.name != "command"}
    for key in file_values:
        if key not in annotations:
            raise ConfigError(f"unknown config key {key!r}")
    for name, annotation in annotations.items():
        cli_value = getattr(args, name, None)
        if cli_value is not None:
            setattr(cfg, name, cli_value)
        elif name in file_values:
            _check_config_value(name, file_values[name], annotation)
            setattr(cfg, name, file_values[name])

    if not cfg.tol > 0:
        raise ConfigError(f"tol must be positive, got {cfg.tol}")
    if cfg.n_max is not None and cfg.n_max < 1:
        raise ConfigError(f"n-max must be >= 1, got {cfg.n_max}")
    if cfg.k < 1 or cfg.l < 2:
        raise ConfigError(f"need k >= 1 and l >= 2, got k={cfg.k}, l={cfg.l}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.sampling not in catalog.SAMPLING_MODES:
        raise ConfigError(f"sampling must be one of {', '.join(catalog.SAMPLING_MODES)}, "
                          f"got {cfg.sampling!r}")
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
    if (not isinstance(value, _CONFIG_TYPES[kind])
            or isinstance(value, bool) != (kind == "bool")):
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
            valid = ",".join(c.value for c in SelectionCriterion)
            raise ConfigError(f"unknown criterion {token!r}; valid: {valid}")
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
    if not cfg.t_end > cfg.t_start:
        raise ConfigError(f"need t-end > t-start, got [{cfg.t_start}, {cfg.t_end}]")
    try:
        grid = TimeGrid(cfg.t_start, cfg.t_end, cfg.l)
    except ValueError as exc:
        raise ConfigError(f"bad time grid: {exc}") from exc
    param_range = _parse_param_range(cfg.param_range) if cfg.param_range else None
    return catalog.make_family_spec(
        cfg.family, cfg.k, grid=grid, param_range=param_range,
        sampling=cfg.sampling, seed=cfg.seed,
    )


def _load_training(cfg: RunConfig) -> catalog.TrainingSet:
    if cfg.input is not None:
        path = Path(cfg.input)
        if not path.exists():
            raise ConfigError(f"input file not found: {path}")
        if not path.is_file():
            raise ConfigError(f"input path is not a file: {path}")
        return catalog.load_training_csv(path)
    if cfg.family is not None:
        return catalog.generate_family(_family_spec(cfg))
    raise ConfigError("no data source: pass --input or --family")


def _build_basis(cfg: RunConfig) -> tuple[catalog.TrainingSet, rbm.ReducedBasis]:
    ts = _load_training(cfg)
    rb = rbm.build_reduced_basis(ts, tol=cfg.tol, n_max=cfg.n_max)
    return ts, rb


def _order(cfg: RunConfig, rb: rbm.ReducedBasis) -> int:
    if cfg.n is None:
        return rb.n
    if not 1 <= cfg.n <= rb.n:
        raise ConfigError(f"--n must lie in 1..{rb.n} (basis size), got {cfg.n}")
    return cfg.n


def cmd_generate(cfg: RunConfig) -> int:
    if cfg.family is None:
        raise ConfigError("generate needs --family")
    ts = catalog.generate_family(_family_spec(cfg))
    out = Path(cfg.out_dir) / "training.csv"
    catalog.save_training_csv(ts, out)
    print(f"wrote {out} ({ts.k} waveforms, {ts.grid.n_samples} samples)")
    return EXIT_OK


def cmd_basis(cfg: RunConfig) -> int:
    _, rb = _build_basis(cfg)
    out_dir = Path(cfg.out_dir)
    rbm.save_basis_csv(rb, out_dir / "basis.csv")
    rbm.save_greedy_errors_csv(rb, out_dir / "greedy_errors.csv")
    print(f"wrote {out_dir / 'basis.csv'} and {out_dir / 'greedy_errors.csv'} "
          f"(n={rb.n}, final error {rb.greedy_errors[-1]:.3e})")
    return EXIT_OK


def cmd_eim(cfg: RunConfig) -> int:
    _, rb = _build_basis(cfg)
    n = _order(cfg, rb)
    out_dir = Path(cfg.out_dir)
    for criterion in _parse_criteria(cfg.criteria):
        itp = eim.build_interpolant(rb, criterion, n,
                                    first_node_variant=cfg.first_node_variant)
        path = out_dir / f"interpolant_{criterion.value}.json"
        eim.save_interpolant_json(itp, path, include_matrices=cfg.embed_matrices)
        print(f"wrote {path} (n={n})")
    return EXIT_OK


def cmd_compare(cfg: RunConfig) -> int:
    ts, rb = _build_basis(cfg)
    criteria = _parse_criteria(cfg.criteria)
    dataset_id = Path(cfg.input).name if cfg.input else f"family:{cfg.family}"
    reports = diagnostics.run_comparison(
        rb, ts, criteria=criteria, dataset_id=dataset_id,
        first_node_variant=cfg.first_node_variant,
    )
    out_dir = Path(cfg.out_dir)
    for criterion in criteria:
        diagnostics.write_report_json(
            reports[criterion], out_dir / f"report_{criterion.value}.json")
    names = diagnostics.write_curve_csvs(reports, out_dir)
    print(f"wrote {len(criteria)} report(s) and {', '.join(names)} in {out_dir}")
    _print_comparison(reports, criteria)
    return EXIT_OK


def _print_comparison(reports, criteria) -> None:
    """Per-order table (kappa_n, lambda_n, worst interp_err_sq per rule) and,
    when the classic rule ran, the classic/other error-ratio summaries."""
    print(f"\n{'n':>3} " + " ".join(f"{c.value:>24}" for c in criteria)
          + "   (kappa_n / lambda_n / interp_err_sq)")
    for recs in zip(*(reports[c].per_n for c in criteria)):
        print(f"{recs[0].n:>3} " + " ".join(
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
        print(f"error ratio classic/{other.value}: {summary}")


def cmd_verify_theorem(cfg: RunConfig) -> int:
    _, rb = _build_basis(cfg)
    n = _order(cfg, rb)
    discrepancies = eim.verify_determinant_identity(rb, n)
    lines = ["step,max_rel_discrepancy"]
    lines += [f"{j + 2},{fmt_float(d)}" for j, d in enumerate(discrepancies)]
    out = Path(cfg.out_dir) / "theorem_check.csv"
    atomic_write_text(out, "\n".join(lines) + "\n")
    # max() would drop a NaN that is not first; a NaN step must fail.
    ok = all(d <= THEOREM_TOLERANCE for d in discrepancies)
    worst = (math.nan if any(map(math.isnan, discrepancies))
             else max(discrepancies, default=0.0))
    print(f"wrote {out}; worst step discrepancy {worst:.3e} "
          f"({'pass' if ok else 'FAIL'} at {THEOREM_TOLERANCE:g})")
    return EXIT_OK if ok else EXIT_VERIFICATION


COMMANDS = {
    "generate": cmd_generate,
    "basis": cmd_basis,
    "eim": cmd_eim,
    "compare": cmd_compare,
    "verify-theorem": cmd_verify_theorem,
}

# Input errors only: a ValueError from inside the library is a fault, not
# bad input, and surfaces as a traceback.
_CONFIG_ERRORS = (ConfigError, UnknownFamily, InvalidRange, ParseError,
                  NonFiniteSample, LengthMismatch, FileNotFoundError)
_DEGENERACY_ERRORS = (DegenerateResidual, EmptyTraining)
_INTERPOLANT_ERRORS = (SingularVMatrix, ConvergenceFailure)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return COMMANDS[args.command](cfg)
    except _DEGENERACY_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except _INTERPOLANT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERPOLANT
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
