#!/usr/bin/env python3
"""Show that the benchmark is steady: several sets of runs of the same code.

Run from the root of a checkout:

    python3 perfbench/spread.py

Each of ``SETS`` sets runs every workload of ``BENCHMARK.json`` ``RUNS``
times for ``run_seconds``, each run with its own seed (``FIRST_SEED`` and
on), the workloads interleaved so that a slow phase of the machine does not
fall on one workload alone. For each workload and end-to-end metric it
prints, per set, the median and the spread (distance between the first and
third quartile as ``statistics.quantiles(values, n=4)`` gives them, as a
share of the median), the change of the median from the first set to each
later one (positive in the metric's worse direction), and the metric's bound
from ``BENCHMARK.json``. A spread or a change in either direction larger than the
bound is marked ``OVER``. The share of failed operations must be the same in
every set. Exits 1 if anything is over.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SETS = 2         # two sets of the same code, as a later comparison of two commits
RUNS = 10        # runs per workload and set, with one seed each
FIRST_SEED = 201


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(command, workload, seed, seconds) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    results = {}  # (set, workload) -> list of result objects
    seed = FIRST_SEED
    for s in range(SETS):
        for _ in range(RUNS):
            for w in workloads:
                res = run_once(bench["command"], w, seed, seconds)
                results.setdefault((s, w), []).append(res)
                print(f"set {s + 1} {w} seed {seed}: attempted {res['attempted']} "
                      f"failed {res['failed']} " + " ".join(
                          f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)
            seed += 1

    over = False
    head = f"{'workload':20s} {'metric':12s} {'bound':>6s}"
    for s in range(SETS):
        head += f" {'median' + str(s + 1):>12s} {'spread' + str(s + 1):>8s}"
        if s:
            head += f" {'change' + str(s + 1):>8s}"
    print(head)
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            line = f"{w:20s} {name:12s} {bound:6.3f}"
            first = None
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for r in results[(s, w)]]
                med, spr = statistics.median(values), spread(values)
                flag = "" if spr <= bound else " OVER"
                line += f" {med:12.5g} {spr:8.3f}{flag}"
                if s == 0:
                    first = med
                else:
                    change = (med - first) / first
                    worse = change if m["better"] == "lower" else -change
                    line += f" {worse:+8.3f}" + (" OVER" if abs(worse) > bound else "")
                    over |= abs(worse) > bound
                over |= bool(flag)
            print(line)
        shares = {s: sorted({r["failed"] / r["attempted"] for r in results[(s, w)]})
                  for s in range(SETS)}
        same = len({tuple(v) for v in shares.values()}) == 1 and len(shares[0]) == 1
        print(f"{w:20s} failed share per set: {shares}" + ("" if same else " DIFFERS"))
        over |= not same
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
