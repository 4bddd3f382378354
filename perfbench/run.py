#!/usr/bin/env python3
"""Pipeline benchmark for emprint: per-command times and surrogate evaluation rate.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload chirp-3rules --seed 1 --seconds 38 --trace 0

The program is imported from ``src/`` of the current directory; nothing needs
to be installed. Each CLI command is timed by calling ``emprint.cli.main`` in
this process. One round runs, in this order: three set-ups (a fresh import of
emprint plus the workload's in-memory inputs), ``generate``, ``basis``,
``eim``, ``compare``, ``verify-theorem``, and the held-out evaluation. Rounds
repeat for about ``--seconds``, so that slow phases of the machine hit every
metric alike; each timing metric is the median over the run, in reference
seconds (see ``SpeedGauge``). After each round the written artifacts are
checked with numpy alone (see ``checks.py``); a failed check or a command
that does not exit 0 counts as a failed operation.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and prints only per-module metrics, computed from
the spans of the traced rounds (see ``spans.py``), plus the tracing overhead:
the traced minus the untraced command time of a round.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread: the pipeline's matrices are small, and a second thread on a
# 2-core machine mostly adds noise. Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

OUT_ROOT = Path(".perfbench_out")
SETUPS_PER_ROUND = 3  # set-up is short: several samples a round steady its median


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    k: int
    l: int
    param_range: str         # per-dimension lo:hi, as for --param-range
    tol: float | None        # None: the CLI default (1e-12)
    criteria: tuple[str, ...]
    n_heldout: int
    eval_repeats: int        # passes over the held-out set per round

    @property
    def param_ranges(self) -> tuple[tuple[float, float], ...]:
        return tuple(tuple(float(x) for x in chunk.split(":"))
                     for chunk in self.param_range.split(","))

    def cli_data_args(self) -> list[str]:
        return ["--tol", repr(self.tol)] if self.tol is not None else []


# Sizes are chosen so that one round takes about 5-7 s on 2 cores: a run of
# 38 s then gives five or more samples of every command for its medians.
WORKLOADS = {
    w.name: w for w in [
        # The acceptance chirp with all three rules: the kappa/lambda scans
        # and the determinant verifier dominate eim, compare and verify.
        Workload("chirp-3rules", "damped_chirp", 101, 1001, "1:50", None,
                 ("classic", "kappa", "lambda"), 200, 6),
        # Long waveforms, classic rule only: CSV parsing dominates basis and
        # eim, and no kappa/lambda scan runs.
        Workload("chirp-long-classic", "damped_chirp", 120, 2001, "1:50", None,
                 ("classic",), 200, 9),
        # Two-parameter packet with many rows and a deeper basis (n=29): the
        # greedy sweep and the per-order error sweep weigh on compare.
        Workload("packet-2d", "gaussian_packet", 900, 201, "0.25:0.75,0.05:0.2", 1e-10,
                 ("classic", "kappa", "lambda"), 200, 12),
    ]
}


def _parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


class Program:
    """The emprint modules of one fresh import."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "emprint" or m.startswith("emprint.")]:
            del sys.modules[name]
        importlib.import_module("emprint")
        self.catalog = importlib.import_module("emprint.catalog")
        self.rbm = importlib.import_module("emprint.rbm")
        self.eim = importlib.import_module("emprint.eim")
        self.cli = importlib.import_module("emprint.cli")


def setup(w: Workload, seed: int):
    """Import emprint afresh and build the in-memory inputs.

    The training set is the workload's pinned equispaced set (the same one
    ``emprint generate`` writes); the held-out set is drawn with
    ``sampling="random"`` from ``seed``.
    """
    prog = Program()
    grid = prog.catalog.TimeGrid(0.0, 1.0, w.l)
    ranges = w.param_ranges
    training = prog.catalog.generate_family(prog.catalog.make_family_spec(
        w.family, w.k, grid=grid, param_range=ranges))
    heldout = prog.catalog.generate_family(prog.catalog.make_family_spec(
        w.family, w.n_heldout, grid=grid, param_range=ranges,
        sampling="random", seed=seed))
    return prog, training, heldout


def command_lines(w: Workload, out_dir: Path) -> list[tuple[str, list[str]]]:
    csv = str(out_dir / "training.csv")
    gen = ["generate", "--family", w.family, "--k", str(w.k), "--l", str(w.l),
           "--param-range", w.param_range]
    data = ["--input", csv, *w.cli_data_args()]
    crit = ["--criteria", ",".join(w.criteria)]
    out = ["--out-dir", str(out_dir)]
    return [
        ("generate", gen + out),
        ("basis", ["basis", *data, *out]),
        ("eim", ["eim", *data, *crit, *out]),
        ("compare", ["compare", *data, *crit, *out]),
        ("verify", ["verify-theorem", *data, *out]),
    ]


def run_command(prog: Program, argv: list[str]) -> tuple[int | None, float, float, str]:
    """Time one ``emprint.cli.main`` call; returns (exit code or None, start, end, log)."""
    sink = io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            rc = prog.cli.main(argv)
        except Exception as exc:  # an uncaught program fault is a failed operation
            rc = None
            print(f"{type(exc).__name__}: {exc}", file=sink)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        t1 = time.perf_counter()
    return rc, t0, t1, sink.getvalue()


def evaluate(prog: Program, surrogates: dict, heldout, repeats: int):
    """Held-out waveforms through ``eim.interpolate_function`` for every rule.

    Returns (waveforms evaluated, start, end). The outputs are dropped; the
    checks get theirs from ``heldout_outputs``.
    """
    interp = prog.eim.interpolate_function
    rows = list(heldout.samples)
    gc.collect()
    t0 = time.perf_counter()
    for _ in range(repeats):
        for itp in surrogates.values():
            for h in rows:
                interp(itp, h)
    return repeats * len(surrogates) * len(rows), t0, time.perf_counter()


def heldout_outputs(prog: Program, surrogates: dict, heldout) -> dict:
    """The surrogate of each rule on every held-out waveform, for the checks."""
    interp = prog.eim.interpolate_function
    return {rule: [interp(itp, h) for h in heldout.samples] for rule, itp in surrogates.items()}


def build_surrogates(w: Workload, prog: Program, training) -> dict:
    """Full-order interpolant of each rule, built once per run by the library."""
    rb = prog.rbm.build_reduced_basis(training, **({"tol": w.tol} if w.tol else {}))
    crit = prog.eim.SelectionCriterion
    return {rule: prog.eim.build_interpolant(rb, crit(rule), rb.n) for rule in w.criteria}


class SpeedGauge:
    """Times a fixed reference kernel between the timed operations.

    Shared cloud machines run in fast and slow phases, up to 1.7x apart, that
    last from seconds to minutes: longer than a run, so medians of raw times
    differ by a third from one run to the next. The kernel (small complex
    SVDs, float parsing and formatting, one matrix product: the kinds of work
    the pipeline does) runs before and after every operation. An operation's
    time is scaled by ``REFERENCE_S`` over the median kernel time within
    ``WINDOW_S`` of it; the window averages out the kernel's own jitter while
    following phases of a few seconds. Times are therefore reported in
    reference seconds: the time the operation takes when the kernel takes
    ``REFERENCE_S``. The kernel does not depend on emprint, so a change to
    the program moves the scaled time as much as the raw one.
    """

    REFERENCE_S = 0.025
    WINDOW_S = 4.0

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(12345)
        self._mats = rng.standard_normal((200, 16, 16)) + 1j * rng.standard_normal((200, 16, 16))
        self._text = ",".join(repr(float(x)) for x in rng.standard_normal(10000))
        self._block = rng.standard_normal((120, 1001)) + 1j * rng.standard_normal((120, 1001))
        self.stamps: list[float] = []
        self.kernels: list[float] = []

    def tick(self) -> None:
        svd = self._np.linalg.svd
        t0 = time.perf_counter()
        for m in self._mats:
            svd(m, compute_uv=False)
        values = [float(x) for x in self._text.split(",")]
        ",".join(repr(v) for v in values)
        self._block @ self._block.conj().T
        t1 = time.perf_counter()
        self.stamps.append((t0 + t1) / 2)
        self.kernels.append(t1 - t0)

    def factor(self, t0: float, t1: float) -> float:
        """Scale factor for an operation that ran from ``t0`` to ``t1``."""
        lo = bisect.bisect_left(self.stamps, t0 - self.WINDOW_S)
        hi = bisect.bisect_right(self.stamps, t1 + self.WINDOW_S)
        return self.REFERENCE_S / statistics.median(self.kernels[lo:hi])


@dataclass
class Op:
    """One timed operation: its kind, when it ran, and its raw seconds."""

    kind: str
    t0: float
    t1: float
    traced: bool = False
    count: int = 1  # waveforms evaluated, for the evaluation


def _median(values):
    return statistics.median(values) if values else None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    w = WORKLOADS[args.workload]
    if not (Path("src") / "emprint" / "__init__.py").is_file():
        print("error: run from the root of an emprint checkout (no src/emprint here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    # Dependencies load once, outside set-up: set-up times emprint's own import.
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import checks
    import spans

    out_dir = OUT_ROOT / w.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    commands = command_lines(w, out_dir)
    gauge = SpeedGauge()
    tracer = spans.Tracer() if args.trace else None
    checker = surrogates = rss_mb = None

    ops: list[Op] = []  # operations that succeeded
    rounds: list[list[Op]] = []
    attempted = failed = 0
    round_durations = []
    start = time.perf_counter()
    # A round starts if it is due to end before half a round past --seconds,
    # so that runs last --seconds on average. A traced run has at least one
    # traced and one untraced round.
    while len(round_durations) < (2 if tracer else 1) or (
            time.perf_counter() - start
            + statistics.median(round_durations) / 2 <= args.seconds):
        round_no = len(round_durations)
        r0 = time.perf_counter()
        for f in out_dir.iterdir():
            f.unlink()
        traced = tracer is not None and round_no % 2 == 0
        this_round = []

        gauge.tick()
        for _ in range(SETUPS_PER_ROUND):
            prog = training = heldout = None  # one set of inputs in memory at a time
            t0 = time.perf_counter()
            prog, training, heldout = setup(w, args.seed)
            this_round.append(Op("setup", t0, time.perf_counter()))
            gauge.tick()
            attempted += 1
        if surrogates is None:
            # Once per run and untimed: the online surrogate, which also warms
            # up every code path the commands take. Should the build fail,
            # every evaluation and held-out check fails with it.
            try:
                surrogates = build_surrogates(w, prog, training)
            except Exception as exc:
                print(f"surrogate build failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                surrogates = {}
            gauge.tick()

        if traced:
            tracer.install()
        for name, argv_ in commands:
            rc, t0, t1, log = run_command(prog, argv_)
            gauge.tick()
            attempted += 1
            if rc == 0:
                this_round.append(Op(name, t0, t1, traced))
            else:
                failed += 1
                print(f"round {round_no}: {name} exited {rc}: {log.strip()[-500:]}",
                      file=sys.stderr)
        count, t0, t1 = evaluate(prog, surrogates, heldout, w.eval_repeats)
        gauge.tick()
        attempted += 1
        if surrogates:
            this_round.append(Op("eval", t0, t1, traced, count))
        else:
            failed += 1
        if traced:
            tracer.uninstall()
            tracer.end_round()
        if rss_mb is None:
            # The peak so far is the program's: the checker, its parses and
            # the outputs it checks are allocated only after this reading.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            checker = checks.Checker(w, heldout, surrogates)

        results = checker.run_round(out_dir, heldout_outputs(prog, surrogates, heldout))
        attempted += len(results)
        for check_name, error in results:
            if error is not None:
                failed += 1
                print(f"round {round_no}: check {check_name} failed: {error}",
                      file=sys.stderr)
        rounds.append(this_round)
        ops += this_round
        round_durations.append(time.perf_counter() - r0)
        print(f"round {round_no}{' traced' if traced else ''}: "
              f"{round_durations[-1]:.2f} s; raw s: "
              + " ".join(f"{op.kind} {op.t1 - op.t0:.3f}" for op in this_round)
              + f"; kernel {gauge.kernels[-1] * 1e3:.1f} ms", file=sys.stderr)

    def scaled(op: Op) -> float:
        return (op.t1 - op.t0) * gauge.factor(op.t0, op.t1)

    if tracer:
        tracer.write(out_dir / f"spans-seed{args.seed}.npz")
        metrics = tracer.metrics()
        # Command seconds per round, traced against untraced, in reference seconds.
        per_round = {True: [], False: []}
        for rnd in rounds:
            cmds = [op for op in rnd if op.kind not in ("setup", "eval")]
            if cmds:
                per_round[cmds[0].traced].append(sum(scaled(op) for op in cmds))
        overhead = None
        if per_round[True] and per_round[False]:
            overhead = _median(per_round[True]) - _median(per_round[False])
        metrics["trace.overhead_s"] = _metric(overhead, "s")
    else:
        metrics = {}
        for kind in ["setup", *(name for name, _ in commands)]:
            metrics[f"{kind}_s"] = _metric(_median([scaled(op) for op in ops if op.kind == kind]), "s")
        metrics["eval_rate"] = _metric(
            _median([op.count / scaled(op) for op in ops if op.kind == "eval"]), "1/s")
        metrics["peak_rss_mb"] = _metric(rss_mb, "MB")
    print(f"{w.name}: {len(round_durations)} rounds in {time.perf_counter() - start:.1f} s; "
          f"median kernel {_median(gauge.kernels) * 1e3:.2f} ms; raw medians "
          + ", ".join(f"{k} {_median([op.t1 - op.t0 for op in ops if op.kind == k]):.4f} s"
                      for k in dict.fromkeys(op.kind for op in ops)),
          file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
