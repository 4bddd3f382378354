"""Correctness checks on the artifacts one benchmark round writes.

Every figure is recomputed here with numpy from the written files, apart
from the program: the CSV and JSON files are parsed by this module, the
training waveforms are compared against the family formulas written out
below, and no emprint function is called. Each check is one operation of the
round; ``Checker.run_round`` returns ``(name, None)`` for a pass and
``(name, message)`` for a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

THEOREM_TOLERANCE = 1e-7
ORTHONORMAL_TOL = 1e-10
MATCH_REL = 1e-6          # recomputed error vs. the program's figure
FLOOR_SQ = 1e-28          # roundoff floor on squared errors, per unit of norm^2
PICK_REL = 1e-10          # slack when comparing a pick with the best candidate
DET_RATIO_REL = 1e-9      # |residual at node| vs |det_v[j] / det_v[j-1]|


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Independent readers and family formulas
# ---------------------------------------------------------------------------

def read_waveform_csv(path: Path):
    """Parse the training/basis CSV format; returns (header fields, params, samples)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        require(header.startswith("# emprint-training v1,"), f"{path.name}: bad header")
        fields = dict(item.strip().split("=", 1)
                      for item in header[len("# emprint-training v1,"):].split(","))
        l, d = int(fields["L"]), int(fields["d"])
        params, samples = [], []
        for line in fh:
            values = np.array(line.replace(":", ",").split(","), dtype=float)
            require(values.size == d + 2 * l, f"{path.name}: row of {values.size} numbers")
            params.append(values[:d])
            samples.append(values[d::2] + 1j * values[d + 1::2])
    return fields, np.array(params).reshape(len(samples), d), np.array(samples)


def read_columns(path: Path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(names)}


def parse_complex(text: str) -> complex:
    re, im = text.split(":")
    return complex(float(re), float(im))


def family_params(k: int, ranges) -> np.ndarray:
    """Equispaced parameters: a row-major tensor grid cut to k rows."""
    if len(ranges) == 1:
        return np.linspace(ranges[0][0], ranges[0][1], k).reshape(-1, 1)
    c = math.ceil(k ** (1.0 / len(ranges)) - 1e-9)
    while c ** len(ranges) < k:
        c += 1
    axes = [np.linspace(lo, hi, c) for lo, hi in ranges]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(ranges))[:k]


def family_samples(family: str, params: np.ndarray, t: np.ndarray) -> np.ndarray:
    if family == "damped_chirp":
        lam = params[:, [0]]
        return np.exp(1j * lam * t * (1.0 + 0.1 * t)) / (1.0 + lam * t * t)
    if family == "gaussian_packet":
        c, w = params[:, [0]], params[:, [1]]
        return np.exp(-0.5 * ((t - c) / w) ** 2 + 20j * c * t)
    raise ValueError(f"no formula for family {family!r}")


def floor_sq(rows: np.ndarray, dt: float) -> float:
    """Roundoff floor for squared errors of ``rows``: FLOOR_SQ * max(1, max ||h||^2 dt)."""
    return FLOOR_SQ * max(1.0, float((np.abs(rows) ** 2).sum(axis=1).max() * dt))


def max_sq_err(a: np.ndarray, b: np.ndarray, dt: float) -> float:
    d = a - b
    return float((np.abs(d) ** 2).sum(axis=-1).max() * dt)


def cardinal_matrix(basis: np.ndarray, nodes) -> np.ndarray:
    """B with B[:, nodes] = I, from numpy.linalg.solve(V^T, E)."""
    v = basis[:, list(nodes)].T
    return np.linalg.solve(v.T, basis)


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------

class Checker:
    """Checks for one workload; keeps the first round's artifact hashes."""

    STEPS = [
        ("training_csv", "check_training_csv"),
        ("basis_orthonormal", "check_orthonormal"),
        ("basis_projection", "check_projection"),
        ("nodes_valid", "check_nodes"),
        ("classic_greedy", "check_classic_picks"),
        ("variant_optimal", "check_variant_picks"),
        ("report_bounds", "check_report_bounds"),
        ("rule_order", "check_rule_order"),
        ("report_recomputed", "check_report_recomputed"),
        ("curves_match_reports", "check_curves"),
        ("interpolant_json", "check_interpolant_json"),
        ("theorem_check", "check_theorem"),
        ("heldout_at_nodes", "check_heldout_nodes"),
        ("heldout_lebesgue", "check_heldout_lebesgue"),
        ("surrogate_matches_cli", "check_surrogate"),
        ("deterministic", "check_deterministic"),
    ]

    def __init__(self, workload, heldout, surrogates):
        self.w = workload
        self.rules = list(workload.criteria)
        self.dt = 1.0 / (workload.l - 1)
        self.tol = workload.tol if workload.tol is not None else 1e-12
        self.heldout = np.asarray(heldout.samples)
        self.surrogate_nodes = {r: list(s.node_indices) for r, s in surrogates.items()}
        self.hashes: dict[str, str] | None = None
        self.parsed: dict[str, tuple] = {}
        self.params = family_params(workload.k, workload.param_ranges)
        self.expected = family_samples(workload.family, self.params,
                                       np.linspace(0.0, 1.0, workload.l))
        # The rule-order check compares the rules with classic, so it needs all three.
        self.steps = [(name, getattr(self, method)) for name, method in self.STEPS
                      if name != "rule_order" or {"classic", "kappa", "lambda"} <= set(self.rules)]

    def run_round(self, out_dir: Path, outputs: dict) -> list[tuple[str, str | None]]:
        self.dir = out_dir
        self.outputs = outputs
        self.cache = {}
        results = []
        for name, fn in self.steps:
            try:
                fn()
                results.append((name, None))
            except Exception as exc:  # a crash in a check is a failed check
                results.append((name, f"{type(exc).__name__}: {exc}"))
        self.outputs = self.cache = None  # nothing of a round outlives its checks
        return results

    # -- shared, parsed once per round --------------------------------------

    def _get(self, key, load):
        if key not in self.cache:
            self.cache[key] = load()
        return self.cache[key]

    def training_file(self):
        """(header fields, params, samples) of training.csv.

        The parse is kept across rounds by file hash: a round that writes the
        same bytes reuses it, which saves a tenth of a round on the larger
        workloads.
        """
        def load():
            path = self.dir / "training.csv"
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if digest not in self.parsed:
                self.parsed = {digest: read_waveform_csv(path)}
            return self.parsed[digest]
        return self._get("training", load)

    def training(self) -> np.ndarray:
        return self.training_file()[2]

    def floor(self) -> float:
        return self._get("floor", lambda: floor_sq(self.training(), self.dt))

    def basis(self) -> np.ndarray:
        return self._get("basis", lambda: read_waveform_csv(self.dir / "basis.csv")[2])

    def interpolant(self, rule) -> dict:
        return self._get(("itp", rule), lambda: json.loads(
            (self.dir / f"interpolant_{rule}.json").read_text(encoding="utf-8")))

    def report(self, rule) -> dict:
        return self._get(("rep", rule), lambda: json.loads(
            (self.dir / f"report_{rule}.json").read_text(encoding="utf-8")))

    def nodes(self, rule) -> list[int]:
        return self.interpolant(rule)["node_indices"]

    # -- generate ------------------------------------------------------------

    def check_training_csv(self):
        fields, params, samples = self.training_file()
        require(int(fields["L"]) == self.w.l and samples.shape == (self.w.k, self.w.l),
                f"training.csv holds {samples.shape}, expected {(self.w.k, self.w.l)}")
        require(float(fields["t_start"]) == 0.0 and float(fields["t_end"]) == 1.0,
                "training.csv grid is not [0, 1]")
        require(np.array_equal(params, self.params), "training parameters differ")
        scale = float(np.abs(self.expected).max())
        err = float(np.abs(samples - self.expected).max())
        require(err <= 1e-12 * scale, f"waveforms differ from the family by {err:.3e}")

    # -- basis ---------------------------------------------------------------

    def check_orthonormal(self):
        e = self.basis()
        gram = e @ e.conj().T
        dev = float(np.abs(gram - np.eye(e.shape[0])).max())
        require(dev <= ORTHONORMAL_TOL, f"max |E E^H - I| = {dev:.3e}")

    def check_projection(self):
        e, h = self.basis(), self.training()
        worst = max_sq_err(h, (h @ e.conj().T) @ e, self.dt)
        floor = self.floor()
        require(worst <= self.tol + floor, f"max projection error {worst:.3e} > tol")
        greedy = read_columns(self.dir / "greedy_errors.csv")
        require(greedy["n"].size == e.shape[0] and greedy["n"][-1] == e.shape[0],
                "greedy_errors.csv does not have one row per basis vector")
        last = float(greedy["sigma_sq"][-1])
        require(abs(worst - last) <= MATCH_REL * max(worst, last) + floor,
                f"recomputed {worst:.6e} vs greedy_errors.csv {last:.6e}")

    # -- node selection ------------------------------------------------------

    def check_nodes(self):
        n, l = self.basis().shape
        table = {}
        with open(self.dir / "nodes.csv", encoding="utf-8") as fh:
            require(fh.readline().strip() == "criterion,n,nodes", "nodes.csv header")
            for line in fh:
                rule, order, nodes = line.strip().split(",")
                table[(rule, int(order))] = [int(x) for x in nodes.split()]
        for rule in self.rules:
            nodes = self.nodes(rule)
            require(len(nodes) == n == self.interpolant(rule)["n"],
                    f"{rule}: {len(nodes)} nodes for a basis of {n}")
            require(len(set(nodes)) == n, f"{rule}: repeated node")
            require(all(0 <= i < l for i in nodes), f"{rule}: node out of range")
            for order in range(1, n + 1):
                require(table.get((rule, order)) == nodes[:order],
                        f"{rule}: nodes.csv order {order} is not the nested prefix")
                rec = self.report(rule)["per_n"][order - 1]
                require(rec["nodes"] == nodes[:order], f"{rule}: report nodes at {order}")

    def _first_node_ok(self, rule):
        e1 = np.abs(self.basis()[0])
        first = self.nodes(rule)[0]
        require(e1[first] >= e1.max() * (1 - PICK_REL),
                f"{rule}: first node {first} does not maximise |e_1|")

    def check_classic_picks(self):
        if "classic" not in self.rules:
            return
        e = self.basis()
        nodes = self.nodes("classic")
        self._first_node_ok("classic")
        for j in range(2, e.shape[0] + 1):
            prev = nodes[: j - 1]
            coeff = np.linalg.solve(e[: j - 1][:, prev].T, e[j - 1, prev])
            r = np.abs(e[j - 1] - coeff @ e[: j - 1])
            pick = nodes[j - 1]
            require(r[pick] >= r.max() * (1 - PICK_REL),
                    f"classic step {j}: |r| at pick {pick} is {r[pick]:.6e}, "
                    f"max {r.max():.6e} at {int(r.argmax())}")

    def check_variant_picks(self):
        """Kappa/lambda picks minimise the objective over every candidate.

        One stacked SVD per step scores all L - j + 1 candidates at once. The
        first, middle and last steps are checked; every step would cost more
        than the commands it checks.
        """
        e = self.basis()
        n, l = e.shape
        for rule in ("kappa", "lambda"):
            if rule not in self.rules:
                continue
            nodes = self.nodes(rule)
            self._first_node_ok(rule)
            for j in sorted({2, (n + 2) // 2, n} - {1}):
                prev = nodes[: j - 1]
                stack = np.empty((l, j, j), dtype=np.complex128)
                stack[:, : j - 1, :] = e[:j][:, prev].T
                stack[:, j - 1, :] = e[:j].T
                s = np.linalg.svd(stack, compute_uv=False)
                with np.errstate(divide="ignore"):  # chosen rows give singular stacks
                    obj = s[:, 0] / s[:, -1] if rule == "kappa" else 1.0 / s[:, -1]
                obj[prev] = np.inf
                pick = nodes[j - 1]
                best = float(obj.min())
                require(obj[pick] <= best * (1 + PICK_REL),
                        f"{rule} step {j}: objective {obj[pick]:.9e} at pick {pick}, "
                        f"minimum {best:.9e} at {int(obj.argmin())}")

    # -- reports -------------------------------------------------------------

    def check_report_bounds(self):
        floor = self.floor()
        for rule in self.rules:
            for rec in self.report(rule)["per_n"]:
                n = rec["n"]
                require(rec["kappa"] >= 1 - 1e-12 and rec["lambda"] >= 1 - 1e-12,
                        f"{rule} n={n}: kappa {rec['kappa']}, lambda {rec['lambda']} below 1")
                proj, interp = rec["max_proj_err_sq"], rec["max_interp_err_sq"]
                require(proj <= interp + floor,
                        f"{rule} n={n}: projection {proj:.3e} > interpolation {interp:.3e}")
                require(interp <= rec["lambda"] ** 2 * proj + floor,
                        f"{rule} n={n}: interpolation {interp:.3e} breaks the Lebesgue "
                        f"bound {rec['lambda'] ** 2 * proj:.3e}")

    def check_rule_order(self):
        k2 = {r: self.report(r)["per_n"][1] for r in ("classic", "kappa", "lambda")}
        require(k2["kappa"]["kappa"] <= k2["classic"]["kappa"] * (1 + 1e-12),
                f"kappa_2: kappa rule {k2['kappa']['kappa']} > classic {k2['classic']['kappa']}")
        require(k2["lambda"]["lambda"] <= k2["classic"]["lambda"] * (1 + 1e-12),
                f"lambda_2: lambda rule {k2['lambda']['lambda']} > "
                f"classic {k2['classic']['lambda']}")

    def check_report_recomputed(self):
        """Projection errors at every order and the full-order interpolation
        error, recomputed with numpy, match the reports."""
        e, h = self.basis(), self.training()
        floor = self.floor()
        coeffs = h @ e.conj().T
        proj = [max_sq_err(h, coeffs[:, :n] @ e[:n], self.dt) for n in range(1, e.shape[0] + 1)]
        for rule in self.rules:
            per_n = self.report(rule)["per_n"]
            for n, rec in enumerate(per_n, start=1):
                want = proj[n - 1]
                got = rec["max_proj_err_sq"]
                require(abs(got - want) <= MATCH_REL * max(got, want) + floor,
                        f"{rule} n={n}: projection error {got:.6e} vs {want:.6e}")
            nodes = self.nodes(rule)
            interp = h[:, nodes] @ cardinal_matrix(e, nodes)
            want = max_sq_err(h, interp, self.dt)
            got = per_n[-1]["max_interp_err_sq"]
            require(abs(got - want) <= MATCH_REL * max(got, want) + floor,
                    f"{rule}: full-order interpolation error {got:.6e} vs {want:.6e}")

    def check_curves(self):
        kappa = read_columns(self.dir / "kappa.csv")
        lam = read_columns(self.dir / "lambda.csv")
        errors = read_columns(self.dir / "errors.csv")
        for rule in self.rules:
            per_n = self.report(rule)["per_n"]
            for col, key, table in [(f"kappa_{rule}", "kappa", kappa),
                                    (f"lambda_{rule}", "lambda", lam),
                                    (f"interp_err_sq_{rule}", "max_interp_err_sq", errors),
                                    ("proj_err_sq", "max_proj_err_sq", errors)]:
                want = np.array([rec[key] for rec in per_n])
                require(np.array_equal(table[col], want), f"{col} differs from report_{rule}")

    # -- interpolant JSON ----------------------------------------------------

    def check_interpolant_json(self):
        for rule in self.rules:
            doc = self.interpolant(rule)
            steps = doc["per_step"]
            dets = [parse_complex(s["det_v"]) for s in steps]
            prev = 1.0
            for j, (step, det) in enumerate(zip(steps, dets), start=1):
                ratio = abs(det / prev)
                got = step["residual_at_node"]
                require(abs(got - ratio) <= DET_RATIO_REL * ratio,
                        f"{rule} step {j}: residual {got:.12e} vs |det ratio| {ratio:.12e}")
                prev = det
            for step, rec in zip(steps, self.report(rule)["per_n"]):
                require(step["kappa"] == rec["kappa"] and step["lambda"] == rec["lambda"],
                        f"{rule} n={rec['n']}: interpolant JSON and report disagree")

    # -- verify-theorem ------------------------------------------------------

    def check_theorem(self):
        n = self.basis().shape[0]
        cols = read_columns(self.dir / "theorem_check.csv")
        require(list(cols["step"]) == list(range(2, n + 1)),
                f"theorem_check.csv has steps {list(cols['step'])[:3]}..., expected 2..{n}")
        worst = float(cols["max_rel_discrepancy"].max()) if n > 1 else 0.0
        require(worst <= THEOREM_TOLERANCE, f"worst discrepancy {worst:.3e}")

    # -- held-out evaluation -------------------------------------------------

    def check_heldout_nodes(self):
        for rule in self.rules:
            nodes = self.nodes(rule)
            out = np.array(self.outputs[rule])
            dev = np.abs(out[:, nodes] - self.heldout[:, nodes]).max(axis=1)
            scale = np.abs(self.heldout).max(axis=1)
            require(np.all(dev <= 1e-10 * scale),
                    f"{rule}: surrogate misses a held-out waveform at a node by "
                    f"{float((dev / scale).max()):.3e}")

    def check_heldout_lebesgue(self):
        e, h = self.basis(), self.heldout
        floor = floor_sq(h, self.dt)
        proj = (np.abs(h - (h @ e.conj().T) @ e) ** 2).sum(axis=1) * self.dt
        for rule in self.rules:
            lam = self.interpolant(rule)["per_step"][-1]["lambda"]
            out = np.array(self.outputs[rule])
            interp = (np.abs(h - out) ** 2).sum(axis=1) * self.dt
            bad = interp > lam ** 2 * proj + floor
            require(not bad.any(), f"{rule}: {int(bad.sum())} held-out waveform(s) break "
                                   f"the Lebesgue bound")

    # -- cross-run -----------------------------------------------------------

    def check_surrogate(self):
        for rule in self.rules:
            require(self.surrogate_nodes[rule] == self.nodes(rule),
                    f"{rule}: library and CLI node lists differ")

    def check_deterministic(self):
        hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(self.dir.iterdir()) if p.suffix in (".csv", ".json")}
        if self.hashes is None:
            self.hashes = hashes
        changed = sorted(k for k in set(hashes) | set(self.hashes)
                         if hashes.get(k) != self.hashes.get(k))
        require(not changed, f"artifacts differ from the first round: {changed}")
