"""Training data: synthetic waveform families, the uniform time grid, and
CSV ingestion/serialization.

Waveforms are complex time series sampled on a closed uniform grid. Errors
elsewhere in the package are measured in the weighted discrete norm
sqrt(sum |h|^2 dt), which carries the grid's uniform quadrature weight dt
and approximates the continuous L2 norm.

A training CSV is parsed once. ``save_training_csv`` writes, beside
``training.csv``, the parsed copy ``training.csv.f64``: one ASCII line
``emprint-parsed v1 sha256=<hex> k=<K> d=<d> l=<L>``, where the digest is
that of the CSV's exact bytes, then the K x (d + 2L) values as little-endian
doubles, row-major (the parameters, then re, im of each sample).
``load_training_csv`` reads the copy instead of the text only when its
digest matches the CSV's current bytes and its d and L match the CSV's
header; otherwise it parses the CSV. Either way the CSV header is parsed and
every check runs, so the two routes differ only in time. Loads never write
the copy, and deleting it is always safe.
"""

from __future__ import annotations

import hashlib
import math
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._fileio import atomic_write_bytes, fmt_float


class LengthMismatch(Exception):
    """Vector length disagrees with the grid or a paired vector."""


class UnknownFamily(Exception):
    """Requested synthetic family name is not registered."""


class InvalidRange(Exception):
    """A parameter range is empty or reversed."""


class ParseError(Exception):
    """A CSV file is structurally malformed; the message carries the line number."""


class NonFiniteSample(Exception):
    """A parsed sample or parameter is NaN or infinite."""


CSV_MAGIC = "emprint-training v1"

# Start of a parsed copy's header. Its version must change whenever the
# rules by which ``_read_parsed_copy`` accepts a copy change, so that copies
# written under the old rules are refused rather than misread.
PARSED_MAGIC = "emprint-parsed v1"
_PARSED_HEADER = re.compile(re.escape(PARSED_MAGIC).encode()
                            + rb" sha256=([0-9a-f]{64}) k=([0-9]+) d=([0-9]+) l=([0-9]+)\n")

# How FamilySpec draws parameter vectors.
SAMPLING_MODES = ("equispaced", "random")


@dataclass(frozen=True)
class TimeGrid:
    """Closed uniform grid t_i = t_start + i*dt, i = 0..n_samples-1."""

    t_start: float
    t_end: float
    n_samples: int

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError(f"grid needs at least 2 samples, got {self.n_samples}")
        if not (self.t_end > self.t_start):
            raise ValueError(f"need t_end > t_start, got [{self.t_start}, {self.t_end}]")
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError(f"grid endpoints must be finite, got [{self.t_start}, {self.t_end}]")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"grid spacing {self.dt} on [{self.t_start}, {self.t_end}] "
                             f"is not positive and finite")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / (self.n_samples - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_samples)


@dataclass(frozen=True)
class TrainingSet:
    """K parametrized waveforms sampled on a shared grid.

    ``params`` is a (K, d) real array of parameter vectors, pairwise
    distinct; ``samples`` is the (K, L) complex array with row k holding the
    waveform for ``params[k]``.
    """

    grid: TimeGrid
    params: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        params = np.asarray(self.params, dtype=float)
        if params.ndim == 1:
            params = params.reshape(-1, 1)
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 2:
            raise ValueError(f"samples must be 2-d, got shape {samples.shape}")
        k = samples.shape[0]
        if k < 1:
            raise ValueError("training set must contain at least one waveform")
        if samples.shape[1] != self.grid.n_samples:
            raise LengthMismatch(
                f"samples have {samples.shape[1]} columns, grid has {self.grid.n_samples}"
            )
        if params.shape[0] != k:
            raise ValueError(f"{params.shape[0]} parameter rows for {k} waveforms")
        if not np.all(np.isfinite(params)):
            raise NonFiniteSample("parameter values must be finite")
        if not np.all(np.isfinite(samples)):
            raise NonFiniteSample("waveform samples must be finite")
        if np.unique(params, axis=0).shape[0] != k:
            raise ValueError("parameter vectors must be pairwise distinct")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "samples", samples)

    @property
    def k(self) -> int:
        return self.samples.shape[0]

    @property
    def d(self) -> int:
        return self.params.shape[1]


# ---------------------------------------------------------------------------
# Synthetic families
# ---------------------------------------------------------------------------

def _damped_chirp(params: np.ndarray, t: np.ndarray) -> np.ndarray:
    lam = params[:, [0]]
    return np.exp(1j * (lam * t + 0.1 * lam * t**2)) / (1.0 + lam * t**2)


def _gaussian_packet(params: np.ndarray, t: np.ndarray) -> np.ndarray:
    center = params[:, [0]]
    width = params[:, [1]]
    envelope = np.exp(-((t - center) ** 2) / (2.0 * width**2))
    return envelope * np.exp(1j * 20.0 * t * center)


def _poly_fourier(params: np.ndarray, t: np.ndarray) -> np.ndarray:
    # Exactly 10-dimensional span regardless of how many parameters are drawn.
    lam = params[:, [0]]
    acc = np.zeros((params.shape[0], t.size), dtype=np.complex128)
    for m in range(10):
        acc += lam**m * np.exp(1j * m * np.pi * t) / math.factorial(m)
    return acc


# name -> (parameter dimension, default per-dimension ranges, evaluator)
FAMILIES = {
    "damped_chirp": (1, ((1.0, 5.0),), _damped_chirp),
    "gaussian_packet": (2, ((0.25, 0.75), (0.05, 0.2)), _gaussian_packet),
    "poly_fourier": (1, ((-5.0, 5.0),), _poly_fourier),
}

DEFAULT_GRID = TimeGrid(0.0, 1.0, 1001)


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for a synthetic training set.

    ``param_range`` holds one (lo, hi) pair per parameter dimension.
    ``sampling`` is "equispaced" (default) or "random"; random draws use
    ``seed`` so generation stays deterministic either way.
    """

    family: str
    param_range: tuple[tuple[float, float], ...]
    n_params: int
    grid: TimeGrid = DEFAULT_GRID
    sampling: str = "equispaced"
    seed: int = 0

    def __post_init__(self):
        rng = tuple((float(lo), float(hi)) for lo, hi in self.param_range)
        for lo, hi in rng:
            if not lo < hi:
                raise InvalidRange(f"parameter range [{lo}, {hi}] is empty")
        if self.n_params < 1:
            raise ValueError(f"n_params must be >= 1, got {self.n_params}")
        if self.sampling not in SAMPLING_MODES:
            raise ValueError(f"unknown sampling mode {self.sampling!r}")
        object.__setattr__(self, "param_range", rng)


def make_family_spec(family: str, n_params: int, grid: TimeGrid | None = None,
                     param_range=None, sampling: str = "equispaced",
                     seed: int = 0) -> FamilySpec:
    """Build a FamilySpec, filling the family's default parameter ranges."""
    if family not in FAMILIES:
        raise UnknownFamily(f"unknown family {family!r}; known: {sorted(FAMILIES)}")
    dim, default_range, _ = FAMILIES[family]
    rng = tuple(param_range) if param_range is not None else default_range
    if len(rng) != dim:
        raise InvalidRange(
            f"family {family!r} takes {dim} parameter range(s), got {len(rng)}"
        )
    return FamilySpec(family, rng, n_params, grid or DEFAULT_GRID, sampling, seed)


def _equispaced_params(ranges, k: int) -> np.ndarray:
    d = len(ranges)
    if d == 1:
        lo, hi = ranges[0]
        return np.linspace(lo, hi, k).reshape(-1, 1)
    # Tensor grid with c points per dimension, c the smallest integer with
    # c**d >= k; rows are row-major (first dimension slowest) and the first
    # k rows are kept.
    c = 1
    while c**d < k:
        c += 1
    axes = [np.linspace(lo, hi, c) for lo, hi in ranges]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    return mesh[:k]


def _random_params(ranges, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    cols = [rng.uniform(lo, hi, size=k) for lo, hi in ranges]
    return np.column_stack(cols)


def generate_family(spec: FamilySpec) -> TrainingSet:
    """Sample a synthetic family into a TrainingSet.

    Parameters are drawn equispaced over ``spec.param_range`` (a tensor grid
    for multi-parameter families) or uniformly at random with ``spec.seed``.
    Identical specs always produce identical training sets. Raises
    InvalidRange when the ranges are too narrow for ``spec.n_params``
    distinct parameter vectors.
    """
    if spec.family not in FAMILIES:
        raise UnknownFamily(
            f"unknown family {spec.family!r}; known: {sorted(FAMILIES)}"
        )
    dim, _, evaluator = FAMILIES[spec.family]
    if len(spec.param_range) != dim:
        raise InvalidRange(
            f"family {spec.family!r} takes {dim} parameter range(s), "
            f"got {len(spec.param_range)}"
        )
    if spec.sampling == "equispaced":
        params = _equispaced_params(spec.param_range, spec.n_params)
    else:
        params = _random_params(spec.param_range, spec.n_params, spec.seed)
    if np.unique(params, axis=0).shape[0] != spec.n_params:
        raise InvalidRange(f"parameter ranges too narrow for {spec.n_params} "
                           f"distinct parameter vectors")
    samples = evaluator(params, spec.grid.points)
    return TrainingSet(spec.grid, params, samples)


# ---------------------------------------------------------------------------
# CSV format
#
# Header:  # emprint-training v1, L=<int>, t_start=<float>, t_end=<float>, d=<int>
#          (plus ", kind=basis" for serialized bases, which carry d=0)
# Rows:    d comma-separated parameter floats, then L "re:im" pairs.
# UTF-8, LF line endings, floats in decimal with optional exponent.
# ---------------------------------------------------------------------------

def _format_row(params_row: np.ndarray, samples_row: np.ndarray) -> str:
    # repr of a Python float is the shortest round-trip form, as fmt_float.
    cells = [repr(p) for p in params_row.tolist()]
    cells += [f"{a!r}:{b!r}" for a, b in zip(samples_row.real.tolist(),
                                             samples_row.imag.tolist())]
    return ",".join(cells)


def write_waveform_csv(path, grid: TimeGrid, params: np.ndarray,
                       samples: np.ndarray, kind: str | None = None) -> bytes:
    """Write a waveform CSV; returns the bytes written."""
    d = params.shape[1] if params.size else 0
    header = (
        f"# {CSV_MAGIC}, L={grid.n_samples}, t_start={fmt_float(grid.t_start)}, "
        f"t_end={fmt_float(grid.t_end)}, d={d}"
    )
    if kind is not None:
        header += f", kind={kind}"
    lines = [header]
    empty = np.empty(0)
    for k in range(samples.shape[0]):
        prow = params[k] if d else empty
        lines.append(_format_row(prow, samples[k]))
    lines.append("")  # the final line ending
    data = "\n".join(lines).encode("utf-8")
    atomic_write_bytes(path, data)
    return data


def save_training_csv(ts: TrainingSet, path) -> None:
    """Serialize a training set; ``load_training_csv`` restores it bit-for-bit.

    Also writes the parsed copy ``<path>.f64`` that later loads read in place
    of the text (see the module docstring).
    """
    data = write_waveform_csv(path, ts.grid, ts.params, ts.samples)
    d, l = ts.d, ts.grid.n_samples
    values = np.empty((ts.k, d + 2 * l), dtype="<f8")
    values[:, :d] = ts.params
    values[:, d::2] = ts.samples.real
    values[:, d + 1::2] = ts.samples.imag
    header = (f"{PARSED_MAGIC} sha256={hashlib.sha256(data).hexdigest()} "
              f"k={ts.k} d={d} l={l}\n")
    atomic_write_bytes(_parsed_copy_path(path), header.encode("ascii") + values.tobytes())


def _parse_header(line: str):
    if not line.startswith(f"# {CSV_MAGIC}"):
        raise ParseError("line 1: missing 'emprint-training v1' header")
    fields = {}
    for chunk in line[len(f"# {CSV_MAGIC}"):].split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ParseError(f"line 1: malformed header field {chunk!r}")
        key, value = chunk.split("=", 1)
        fields[key.strip()] = value.strip()
    try:
        grid = TimeGrid(float(fields["t_start"]), float(fields["t_end"]),
                        int(fields["L"]))
        d = int(fields["d"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"line 1: bad or missing header field ({exc})") from exc
    if d < 0:
        raise ParseError(f"line 1: negative parameter count d={d}")
    return grid, d, fields.get("kind")


def _parse_float(text: str, lineno: int) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bad float {text!r}") from exc


def _check_row(line: str, lineno: int, row: int, d: int, l: int) -> None:
    """Walk a row cell by cell; raise the error that names its first bad cell."""
    cells = line.split(",")
    if len(cells) != d + l:
        raise ParseError(
            f"line {lineno}: expected {d + l} fields ({d} parameters + "
            f"{l} samples), got {len(cells)}"
        )
    for i, cell in enumerate(cells[:d]):
        if not math.isfinite(_parse_float(cell, lineno)):
            raise NonFiniteSample(
                f"non-finite parameter at row {row}, component {i} (line {lineno})"
            )
    for i, cell in enumerate(cells[d:]):
        parts = cell.split(":")
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: bad sample pair {cell!r}")
        re, im = (_parse_float(part, lineno) for part in parts)
        if not (math.isfinite(re) and math.isfinite(im)):
            raise NonFiniteSample(
                f"non-finite sample at row {row}, column {i} (line {lineno})"
            )


def read_waveform_csv(path):
    """Parse a waveform CSV; returns (grid, params, samples, kind).

    Each row is parsed in C by ``np.fromstring`` straight into arrays sized
    from the header. A row is taken only if its separators are exactly d
    commas followed by L alternating ':' and ',' (so '1:2:3,4' cannot pass
    as two pairs) and it yields d + 2L finite values; any other row is
    walked cell by cell to raise the error that names its bad cell.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("line 1: empty file")
    grid, d, kind = _parse_header(lines[0])
    l = grid.n_samples
    rows = [(lineno, line) for lineno, line in enumerate(lines[1:], start=2)
            if line.strip()]
    if not rows:
        raise ParseError("line 2: file contains no waveform rows")
    n_seps = d + 2 * l - 1
    if min(len(line) for _, line in rows) < n_seps:
        # A row too short to hold its separators is bad: find the first bad
        # row before allocating anything from the header's sizes.
        for row, (lineno, line) in enumerate(rows):
            _check_row(line, lineno, row, d, l)
    pattern = np.full(n_seps, ord(","), dtype=np.uint8)
    pattern[d::2] = ord(":")
    params = np.empty((len(rows), d))
    samples = np.empty((len(rows), l), dtype=np.complex128)
    flat = samples.view(np.float64)
    with warnings.catch_warnings():
        # numpy < 2 warns on text it cannot parse and returns the values read
        # so far; later versions raise ValueError. Both reject the row.
        warnings.simplefilter("error")
        for row, (lineno, line) in enumerate(rows):
            raw = np.frombuffer(line.encode(), dtype=np.uint8)
            seps = raw[(raw == ord(",")) | (raw == ord(":"))]
            values = None
            if seps.shape == pattern.shape and (seps == pattern).all():
                try:
                    values = np.fromstring(line.replace(":", ","), sep=",")
                except (ValueError, Warning):
                    pass
            if (values is None or values.shape != (d + 2 * l,)
                    or not np.isfinite(values).all()):
                _check_row(line, lineno, row, d, l)
                raise ParseError(f"line {lineno}: cells must be ASCII decimal floats")
            if (values == -1.0).any():
                # np.fromstring reads a blank cell (" ") as -1.0; the walk
                # faults a blank cell and passes a written -1.
                _check_row(line, lineno, row, d, l)
            params[row] = values[:d]
            flat[row] = values[d:]
    return grid, params, samples, kind


def _parsed_copy_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".f64")


def _read_parsed_copy(path):
    """(grid, params, samples, kind) of the CSV at ``path`` from its parsed
    copy, or None when there is no copy that may be trusted.

    A copy is trusted only when its header names the SHA-256 of the CSV's
    current bytes and the d and L of the CSV's own header, and its payload
    holds exactly k*(d + 2L) little-endian doubles for some k >= 1. Anything
    else, a missing or unreadable file included, returns None, and the
    caller parses the CSV.
    """
    try:
        with open(_parsed_copy_path(path), "rb") as fh:
            match = _PARSED_HEADER.fullmatch(fh.readline(256))
            if match is None:
                return None
            payload = fh.read()
        with open(path, "rb") as fh:
            first_line = fh.readline()
            digest = hashlib.sha256(first_line)
            while block := fh.read(1 << 20):
                digest.update(block)
    except OSError:
        return None
    k, d, l = (int(g) for g in match.group(2, 3, 4))
    if (k < 1 or len(payload) != k * (d + 2 * l) * 8
            or digest.hexdigest() != match.group(1).decode("ascii")):
        return None
    try:
        grid, csv_d, kind = _parse_header(first_line.decode("utf-8"))
    except (UnicodeDecodeError, ParseError):
        return None
    if (csv_d, grid.n_samples) != (d, l):
        return None
    values = np.frombuffer(payload, dtype="<f8").reshape(k, d + 2 * l)
    params = np.array(values[:, :d], dtype=np.float64, order="C")
    samples = np.array(values[:, d:], dtype=np.float64, order="C").view(np.complex128)
    return grid, params, samples, kind


def load_training_csv(path) -> TrainingSet:
    """Load a training CSV written by ``save_training_csv``.

    The values come from the parsed copy beside the CSV when it may be
    trusted (see ``_read_parsed_copy``), else from parsing the CSV; every
    check below runs either way. Raises ParseError when two rows share a
    parameter vector.
    """
    parsed = _read_parsed_copy(path)
    grid, params, samples, kind = parsed if parsed is not None else read_waveform_csv(path)
    if kind is not None:
        raise ParseError(f"line 1: expected a training file, found kind={kind}")
    if params.shape[1] < 1:
        raise ParseError("line 1: training files need d >= 1")
    first_row = {}
    for row, p in enumerate(map(tuple, params)):
        if first_row.setdefault(p, row) != row:
            raise ParseError(f"waveform row {row} repeats the parameters of row "
                             f"{first_row[p]}")
    return TrainingSet(grid, params, samples)
