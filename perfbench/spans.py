"""Spans around emprint's public functions, and per-module metrics from them.

``Tracer.install`` wraps every public function of each emprint module, both
where it is defined and wherever another module bound it at import time (for
example ``diagnostics.build_interpolant`` or each module's
``atomic_write_text``). Each call records a span: name, start, end and the
span that called it. Spans are kept in flat in-memory arrays and written out
once, at the end of the run.

A span's self time is its duration minus the durations of the spans it
called. Each metric below is the self time of one or more key functions; a
span that is not a key passes its self time up to the nearest enclosing key
span (``catalog.write_waveform_csv`` under ``rbm.save_basis_csv`` counts as
basis saving, ``eim.interpolate`` under ``eim.interpolate_function`` as
evaluation). Metrics are computed per traced round and reported as the
median over those rounds.
"""

from __future__ import annotations

import collections
import inspect
import os
import statistics
import sys
import time
from array import array

import numpy as np

MODULES = ("catalog", "rbm", "eim", "diagnostics", "numerics", "cli", "_fileio")

# Per-number and per-call helpers: a span for each call would time the tracer
# rather than the program (fmt_float runs once per written float, and
# as_complex_matrix once per numerics call).
UNWRAPPED = {"_fileio.fmt_float", "numerics.as_complex_matrix"}

SVD_FUNCS = ("numerics.condition_number_2", "numerics.inverse_two_norm", "numerics.two_norm")
LU_FUNCS = ("numerics.lu_factor", "numerics.determinant", "numerics.solve")

# Span label -> the key its self time is charged to.
KEYS = {
    "catalog.generate_family": "catalog.generate_family",
    "catalog.save_training_csv": "catalog.save_training_csv",
    "catalog.load_training_csv": "catalog.load_training_csv",
    "rbm.build_reduced_basis": "rbm.build_reduced_basis",
    "rbm.save_basis_csv": "rbm.save_basis_csv",
    "rbm.save_greedy_errors_csv": "rbm.save_basis_csv",
    "eim.build_interpolant[classic]": "eim.build_classic",
    "eim.build_interpolant[kappa]": "eim.build_kappa",
    "eim.build_interpolant[lambda]": "eim.build_lambda",
    "eim.verify_determinant_identity": "eim.verify",
    "eim.interpolate_function": "eim.interpolate",
    "eim.save_interpolant_json": "eim.save_json",
    "eim.truncate_interpolant": "eim.truncate",
    "diagnostics.run_comparison": "diagnostics.run_comparison",
    "diagnostics.write_report_json": "diagnostics.write",
    "diagnostics.write_curve_csvs": "diagnostics.write",
    "cli.main": "cli",
    "_fileio.atomic_write_text": "fileio.write",
    **{f: "numerics.svd" for f in SVD_FUNCS},
    **{f: "numerics.lu" for f in LU_FUNCS},
}
KEY_NAMES = sorted(set(KEYS.values()))

# Per-layer metric -> unit, in the order they are printed.
UNITS = {
    "catalog.generate_family_s": "s",
    "catalog.save_training_csv_s": "s",
    "catalog.load_training_csv_s": "s",
    "catalog.load_mb_per_s": "MB/s",
    "catalog.csv_mb": "MB",
    "rbm.build_reduced_basis_s": "s",
    "rbm.save_basis_csv_s": "s",
    "rbm.basis_n": "count",
    "eim.build_classic_s": "s",
    "eim.build_kappa_s": "s",
    "eim.build_lambda_s": "s",
    "eim.candidates_scored": "count",
    "eim.candidates_per_s": "1/s",
    "eim.verify_s": "s",
    "eim.interpolate_us": "us",
    "eim.save_json_s": "s",
    "eim.truncate_s": "s",
    "diagnostics.run_comparison_self_s": "s",
    "diagnostics.write_s": "s",
    "numerics.svd_calls": "count",
    "numerics.svd_s": "s",
    "numerics.lu_calls": "count",
    "numerics.lu_s": "s",
    "cli.self_s": "s",
    "fileio.write_s": "s",
    "fileio.bytes_written": "count",
    "trace.spans": "count",
}


def candidates_scored(n: int, l: int) -> int:
    """Candidate matrices a kappa/lambda build scores: sum_{j=2..n} (L - j + 1)."""
    return sum(l - j + 1 for j in range(2, n + 1))


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.stack = [-1]
        self.rounds: list[tuple[int, int, dict]] = []
        self.counters = collections.Counter()
        self._round_start = 0
        self._undo: list[tuple[object, str, object]] = []

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    # -- hooks for counts measured at the call -------------------------------

    def _after(self, label):
        """Hook run after a call of ``label`` returns, or None."""

        def load(args, kwargs, result):
            self.counters["load_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

        def save(args, kwargs, result):
            self.counters["csv_bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))

        def basis(args, kwargs, result):
            self.counters["basis_n"] = result.n

        def write(args, kwargs, result):
            self.counters["bytes_written"] += len(_arg(args, kwargs, 1, "text").encode("utf-8"))

        def build(args, kwargs, result):
            if result.criterion.value != "classic":
                self.counters["candidates"] += candidates_scored(
                    result.n, result.basis.grid.n_samples)

        return {"catalog.load_training_csv": load, "catalog.save_training_csv": save,
                "rbm.build_reduced_basis": basis, "_fileio.atomic_write_text": write,
                "eim.build_interpolant": build}.get(label)

    def _wrap(self, label: str, fn):
        starts, ends, parents, names, stack = (
            self.start, self.end, self.parent, self.name, self.stack)
        clock = time.perf_counter
        after = self._after(label)
        if label == "eim.build_interpolant":
            ids = {v: self._label_id(f"{label}[{v}]") for v in ("classic", "kappa", "lambda")}

            def name_of(args, kwargs):
                return ids[_arg(args, kwargs, 1, "criterion").value]
        else:
            fixed = self._label_id(label)

            def name_of(args, kwargs):
                return fixed

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(name_of(args, kwargs))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap the public functions of the freshly imported emprint modules."""
        loaded = [m for name, m in sys.modules.items()
                  if name == "emprint" or name.startswith("emprint.")]
        for short in MODULES:
            mod = sys.modules[f"emprint.{short}"]
            for attr, fn in list(vars(mod).items()):
                label = f"{short}.{attr}"
                if (attr.startswith("_") or label in UNWRAPPED
                        or not inspect.isfunction(fn) or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(label, fn)
                for m in loaded:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, name, wrapper)
                            self._undo.append((m, name, fn))

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._undo):
            setattr(mod, name, fn)
        self._undo.clear()

    def end_round(self) -> None:
        self.rounds.append((self._round_start, len(self.start), self.counters))
        self._round_start = len(self.start)
        self.counters = collections.Counter()
        self.stack[:] = [-1]

    def write(self, path) -> None:
        np.savez(path, start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 name=np.frombuffer(self.name, dtype=np.int64),
                 labels=np.array(self.labels),
                 rounds=np.array([(lo, hi) for lo, hi, _ in self.rounds], dtype=np.int64))

    # -- metrics -------------------------------------------------------------

    def _round_metrics(self, lo: int, hi: int, counters: collections.Counter) -> dict[str, float]:
        m = hi - lo
        start = np.frombuffer(self.start)[lo:hi]
        dur = np.frombuffer(self.end)[lo:hi] - start
        par = np.frombuffer(self.parent, dtype=np.int64)[lo:hi].copy()
        par[par >= 0] -= lo
        name = np.frombuffer(self.name, dtype=np.int64)[lo:hi]
        label_key = np.array([KEY_NAMES.index(KEYS[lb]) if lb in KEYS else -1
                              for lb in self.labels] or [-1], dtype=np.int64)
        key = label_key[name] if m else np.empty(0, dtype=np.int64)

        has_parent = par >= 0
        self_time = dur - np.bincount(par[has_parent], weights=dur[has_parent], minlength=m)
        # Charge each span to its nearest enclosing key span (itself if a key).
        owner = np.where(key >= 0, np.arange(m), par)
        while True:
            pending = (owner >= 0) & (key[np.maximum(owner, 0)] < 0)
            if not pending.any():
                break
            owner[pending] = par[owner[pending]]
        charged = owner >= 0
        by_key = np.bincount(key[owner[charged]], weights=self_time[charged],
                             minlength=len(KEY_NAMES))
        t = {k: float(by_key[i]) for i, k in enumerate(KEY_NAMES)}

        def calls(*labels):
            ids = [self._label_ids[lb] for lb in labels if lb in self._label_ids]
            return int(np.isin(name, ids).sum())

        def inclusive(*labels):
            ids = [self._label_ids[lb] for lb in labels if lb in self._label_ids]
            return float(dur[np.isin(name, ids)].sum())

        scan_time = inclusive("eim.build_interpolant[kappa]", "eim.build_interpolant[lambda]")
        candidates = counters["candidates"]
        n_interp = calls("eim.interpolate_function")
        load_s = t["catalog.load_training_csv"]
        return {
            "catalog.generate_family_s": t["catalog.generate_family"],
            "catalog.save_training_csv_s": t["catalog.save_training_csv"],
            "catalog.load_training_csv_s": load_s,
            "catalog.load_mb_per_s": counters["load_bytes"] / 1e6 / load_s if load_s else 0.0,
            "catalog.csv_mb": counters["csv_bytes"] / 1e6,
            "rbm.build_reduced_basis_s": t["rbm.build_reduced_basis"],
            "rbm.save_basis_csv_s": t["rbm.save_basis_csv"],
            "rbm.basis_n": counters["basis_n"],
            "eim.build_classic_s": t["eim.build_classic"],
            "eim.build_kappa_s": t["eim.build_kappa"],
            "eim.build_lambda_s": t["eim.build_lambda"],
            "eim.candidates_scored": candidates,
            "eim.candidates_per_s": candidates / scan_time if scan_time else 0.0,
            "eim.verify_s": t["eim.verify"],
            "eim.interpolate_us": 1e6 * t["eim.interpolate"] / n_interp if n_interp else 0.0,
            "eim.save_json_s": t["eim.save_json"],
            "eim.truncate_s": t["eim.truncate"],
            "diagnostics.run_comparison_self_s": t["diagnostics.run_comparison"],
            "diagnostics.write_s": t["diagnostics.write"],
            "numerics.svd_calls": calls(*SVD_FUNCS),
            "numerics.svd_s": t["numerics.svd"],
            "numerics.lu_calls": calls(*LU_FUNCS),
            "numerics.lu_s": t["numerics.lu"],
            "cli.self_s": t["cli"],
            "fileio.write_s": t["fileio.write"],
            "fileio.bytes_written": counters["bytes_written"],
            "trace.spans": m,
        }

    def metrics(self) -> dict[str, dict]:
        """Median over the traced rounds of each per-module metric."""
        per_round = [self._round_metrics(lo, hi, c) for lo, hi, c in self.rounds]
        out = {}
        for name, unit in UNITS.items():
            values = [r[name] for r in per_round]
            out[name] = {"value": statistics.median(values) if values else None, "unit": unit}
        return out
