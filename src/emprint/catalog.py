"""Training data: synthetic waveform families, the uniform time grid, and
CSV ingestion/serialization.

Waveforms are complex time series sampled on a closed uniform grid. Errors
elsewhere in the package are measured in the weighted discrete norm
sqrt(sum |h|^2 dt), which carries the grid's uniform quadrature weight dt
and approximates the continuous L2 norm.

Both waveform CSVs, the training set's and the basis's (``waveform_csv``),
are written by one row writer that uses two CPUs when this
process may run on more than one, K >= 2 and the text has at least
``_HELPER_CELLS`` cells (K x (d + L)). A helper interpreter, ``_rowtext``
run as a script under ``-I -S`` (the standard library only: no numpy, none
of this process's pages), writes rows 0, 1, 2, ... and passes on each line
as soon as it is done, while this process writes rows K-1, K-2, ....
Between its rows this process sends the helper the rows' doubles and reads
its lines, both on non-blocking pipes, and it stops as soon as its next row
is one the helper has already written; the two meet wherever the faster one
gets to. The helper's lines up to there are kept as read, and used only if
they hold d + L - 1 commas a line; any row the helper did not give (it
could not start, died, was slow, or failed that check) is written here.
Both sides write each row with ``_rowtext.row``, so the bytes are those of
a serial write. The helper is killed and reaped before ``waveform_csv``
returns or raises.

``waveform_csv`` and ``training_files`` return the files' contents and
write nothing; a command's caller commits all its files at once, all or
none, with ``_fileio.commit``, as ``save_training_csv`` does for a training
set's two files. Only a rename that fails after others succeeded is not
undone (see ``_fileio.commit``).

A family is synthesized into one (K, L) array, allocated once and filled
in row blocks of at most ``_BLOCK_CELLS`` samples, so that the formula's
temporaries stay small; ``training_files`` writes the parsed copy from row
views of the set's own arrays. ``generate`` so holds the samples once and
the CSV text once, with no other copy of either.

A training CSV is parsed once. ``training_files`` gives, beside
``training.csv``, the parsed copy ``training.csv.f64``, by
``_fileio.keyed_copy``: one ASCII line ``emprint-parsed v1
sha256=<hex> k=<K> d=<d> l=<L>``, where the digest is that of the CSV's
exact bytes (hashed over its lines, which are never joined), then the
K x (d + 2L) values as little-endian doubles, row-major (the parameters,
then re, im of each sample).

``open_training_csv`` reads the copy instead of the text when its header
line is exactly the one the CSV's own header and the digest it claims
give. It does not wait for the CSV's SHA-256 to do so: the hash runs on one
worker thread while the caller works on the claimed digest, and the
``confirm`` function it returns joins the thread and says whether the claim
holds. A caller confirms before anything it computed is used, and on a
false claim (a stale copy) discards its results and starts again from
``parse_training_csv``, the text parse. ``load_training_csv`` confirms at
once, so its set always carries a confirmed digest. Every
check runs on either route, so the two differ only in time; a check that
fails on the claim is confirmed at once, and raises only if the claim
holds. Loads never write the copy, and deleting it is always safe. A loaded
set carries the SHA-256 of the CSV's bytes; ``rbm`` and ``eim`` key their
binary copies with it.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import _rowtext
from ._fileio import commit, fmt_float, keyed_copy, read_keyed_copy


class LengthMismatch(Exception):
    """Vector length disagrees with the grid or a paired vector."""


class UnknownFamily(Exception):
    """Requested synthetic family name is not registered."""


class InvalidRange(ValueError):
    """An argument lies outside its valid range: a parameter range, a time
    grid, a sample count, sampling mode or seed, a greedy tolerance or cap,
    or an interpolant order. Each is checked once, where it is used."""


class ParseError(Exception):
    """A CSV file is structurally malformed; the message carries the line number."""


class NonFiniteSample(Exception):
    """A parsed sample or parameter is NaN or infinite."""


class _RepeatedParameters(ValueError):
    """Row ``row`` of a training set repeats the parameters of row ``first``,
    the lowest such pair."""

    def __init__(self, row: int, first: int):
        super().__init__("parameter vectors must be pairwise distinct")
        self.row, self.first = row, first


CSV_MAGIC = "emprint-training v1"

# Start of a parsed copy's header. Its version must change whenever the
# layout of the copy changes, so that copies written under the old layout
# are refused rather than misread.
PARSED_MAGIC = "emprint-parsed v1"

# How FamilySpec draws parameter vectors.
SAMPLING_MODES = ("equispaced", "random")


@dataclass(frozen=True)
class TimeGrid:
    """Closed uniform grid t_i = t_start + i*dt, i = 0..n_samples-1.

    Raises InvalidRange unless n_samples >= 2, the endpoints are finite with
    t_end > t_start, and dt is positive and finite.
    """

    t_start: float
    t_end: float
    n_samples: int

    def __post_init__(self):
        if self.n_samples < 2:
            raise InvalidRange(f"grid needs at least 2 samples, got {self.n_samples}")
        if not (self.t_end > self.t_start):
            raise InvalidRange(f"need t_end > t_start, got [{self.t_start}, {self.t_end}]")
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise InvalidRange(f"grid endpoints must be finite, "
                               f"got [{self.t_start}, {self.t_end}]")
        if not 0.0 < self.dt < math.inf:
            raise InvalidRange(f"grid spacing {self.dt} on [{self.t_start}, {self.t_end}] "
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
    waveform for ``params[k]``. ``csv_sha256`` is the hex SHA-256 of the
    training CSV's bytes for a set loaded by ``load_training_csv``, and None
    for a set built in memory.
    """

    grid: TimeGrid
    params: np.ndarray
    samples: np.ndarray
    csv_sha256: str | None = None

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
        # np.unique's indices are those of first occurrences, so a row whose
        # group starts elsewhere repeats that group's first row.
        _, first, group = np.unique(params, axis=0, return_index=True, return_inverse=True)
        owner = first[group.reshape(-1)]
        repeats = np.flatnonzero(owner != np.arange(k))
        if repeats.size:
            raise _RepeatedParameters(int(repeats[0]), int(owner[repeats[0]]))
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

# ``generate_family`` evaluates a family formula on whole rows of at most
# this many samples at a time (at least one row), so that each of the
# formula's temporaries takes at most 512 KiB as complex values. The
# formulas work element by element, so the samples do not depend on it.
_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for a synthetic training set.

    ``family`` names an entry of ``FAMILIES``; ``param_range`` holds one
    (lo, hi) pair per parameter dimension of that family. ``sampling`` is
    "equispaced" (default) or "random"; random draws use ``seed`` so
    generation stays deterministic either way. Raises UnknownFamily for an
    unregistered family and InvalidRange for any other bad field.
    """

    family: str
    param_range: tuple[tuple[float, float], ...]
    n_params: int
    grid: TimeGrid = DEFAULT_GRID
    sampling: str = "equispaced"
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnknownFamily(f"unknown family {self.family!r}; known: {sorted(FAMILIES)}")
        dim = FAMILIES[self.family][0]
        if len(self.param_range) != dim:
            raise InvalidRange(f"family {self.family!r} takes {dim} parameter range(s), "
                               f"got {len(self.param_range)}")
        rng = tuple((float(lo), float(hi)) for lo, hi in self.param_range)
        for lo, hi in rng:
            if not math.isfinite(hi - lo):
                raise InvalidRange(f"parameter range [{lo}, {hi}] needs finite "
                                   f"endpoints and width")
            if not lo < hi:
                raise InvalidRange(f"parameter range [{lo}, {hi}] is empty")
        if self.n_params < 1:
            raise InvalidRange(f"n_params must be >= 1, got {self.n_params}")
        if self.sampling not in SAMPLING_MODES:
            raise InvalidRange(f"unknown sampling mode {self.sampling!r}; "
                               f"known: {', '.join(SAMPLING_MODES)}")
        if self.seed < 0:
            raise InvalidRange(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "param_range", rng)


def make_family_spec(family: str, n_params: int, grid: TimeGrid | None = None,
                     param_range=None, sampling: str = "equispaced",
                     seed: int = 0) -> FamilySpec:
    """Build a FamilySpec, filling the family's default parameter ranges."""
    if param_range is None:
        param_range = FAMILIES[family][1] if family in FAMILIES else ()
    return FamilySpec(family, tuple(param_range), n_params, grid or DEFAULT_GRID,
                      sampling, seed)


def _equispaced_params(ranges, k: int) -> np.ndarray:
    d = len(ranges)
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
    distinct parameter vectors. The samples are allocated once and filled
    in row blocks of at most ``_BLOCK_CELLS`` samples.
    """
    evaluator = FAMILIES[spec.family][2]
    if spec.sampling == "equispaced":
        params = _equispaced_params(spec.param_range, spec.n_params)
    else:
        params = _random_params(spec.param_range, spec.n_params, spec.seed)
    if np.unique(params, axis=0).shape[0] != spec.n_params:
        raise InvalidRange(f"parameter ranges too narrow for {spec.n_params} "
                           f"distinct parameter vectors")
    t = spec.grid.points
    samples = np.empty((spec.n_params, t.size), dtype=np.complex128)
    rows = max(1, _BLOCK_CELLS // t.size)
    for start in range(0, spec.n_params, rows):
        samples[start:start + rows] = evaluator(params[start:start + rows], t)
    return TrainingSet(spec.grid, params, samples)


# ---------------------------------------------------------------------------
# CSV format
#
# Header:  # emprint-training v1, L=<int>, t_start=<float>, t_end=<float>, d=<int>
#          (plus ", kind=basis" for serialized bases, which carry d=0)
# Rows:    d comma-separated parameter floats, then L "re:im" pairs.
# UTF-8, LF line endings, floats in decimal with optional exponent.
# ---------------------------------------------------------------------------

def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


# A text of fewer cells than this, rows x (d + L), is written here alone. A
# helper takes about 13 ms to start, the time of 5,000-8,000 cells here, so
# it takes over too little of a shorter text. On 2 shared vCPUs the packet-2d
# basis (5,829 cells) took 19.0 ms with a helper and 17.3 ms without; the
# chirp-3rules basis (19,019 cells) took 36-40 ms with one and 41-52 without.
_HELPER_CELLS = 12_000

# Each read of the helper's output takes at most this many bytes.
_READ_BYTES = 1 << 16

# The helper's two pipes are widened to this many bytes where the platform
# allows it (F_SETPIPE_SZ, Linux), so that its input can run rows ahead of
# it and it can run rows ahead of the reads here.
_PIPE_BYTES = 1 << 20


class _Helper:
    """A helper interpreter, ``_rowtext`` run as a script, that writes the
    lines of rows from the top, and the text read from it so far.

    This process sends the rows' doubles and reads the lines on non-blocking
    pipes between its own rows (``pump``). A feeding thread would starve: it
    waits for the GIL, and each read here resets its wait."""

    proc = None
    lines = 0  # the LFs in ``chunks``

    def start(self, params: np.ndarray, samples: np.ndarray) -> None:
        """Start it on the rows ``params``, ``samples``. A helper that
        cannot start writes no lines."""
        self.chunks = []  # its text, as read
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-I", "-S", _rowtext.__file__,
                 *map(str, (params.shape[1], samples.shape[1], len(params)))],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        except OSError:
            return
        for pipe in (self.proc.stdin, self.proc.stdout):
            os.set_blocking(pipe.fileno(), False)
            with contextlib.suppress(AttributeError, OSError):
                fcntl.fcntl(pipe.fileno(), fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        # The rows' doubles not yet sent, the parameters then the samples, as
        # byte views of their arrays: a copy would add to the peak RSS.
        self.unsent = [memoryview(np.ascontiguousarray(a).reshape(-1).view(np.uint8))
                       for a in (params, samples)]

    def pump(self) -> int:
        """Send it what its input pipe takes and read what it has written,
        without waiting; returns the lines read so far."""
        if self.proc is not None:
            with contextlib.suppress(BlockingIOError, BrokenPipeError):  # full, or it exited
                while self.unsent:
                    sent = os.write(self.proc.stdin.fileno(), self.unsent[0])
                    self.unsent = [v for v in (self.unsent[0][sent:], *self.unsent[1:]) if v]
            with contextlib.suppress(BlockingIOError):  # nothing more to read yet
                while chunk := os.read(self.proc.stdout.fileno(), _READ_BYTES):
                    self.chunks.append(chunk)
                    self.lines += chunk.count(b"\n")
        return self.lines

    def text(self, rows: int, commas: int) -> list | None:
        """The chunks of its first ``rows`` lines, the last chunk cut after
        their final LF, or None unless they hold ``commas`` commas a line."""
        chunks, excess = self.chunks, self.lines - rows
        while chunks and chunks[-1].count(b"\n") <= excess:
            excess -= chunks.pop().count(b"\n")
        if chunks:
            chunks[-1] = chunks[-1].rsplit(b"\n", excess + 1)[0] + b"\n"
        return chunks if sum(c.count(b",") for c in chunks) == rows * commas else None

    def stop(self) -> None:
        """Kill and reap it, and close its pipes."""
        if self.proc is not None:
            with self.proc:  # closes its pipes and waits for it
                self.proc.kill()


def _encoded_rows(params: np.ndarray, samples: np.ndarray) -> list:
    """The lines of the rows ``params``, ``samples``, each by
    ``_rowtext.row``, in order, as a list of byte strings. With a second CPU
    and at least ``_HELPER_CELLS`` cells, a helper writes them from the top
    while this process writes them from the bottom (see the module
    docstring); the helper's lines then come first, as the chunks read."""
    k, cells = len(params), params.shape[1] + samples.shape[1]  # cells: d + L a row
    parts = np.ascontiguousarray(samples).view(np.float64)
    values = params.tolist()

    def line(i):
        return _rowtext.row(values[i], parts[i].tolist())
    tail, head = [], None  # tail: rows k - 1, k - 2, ... written here
    if k > 1 and k * cells >= _HELPER_CELLS and sys.executable and _usable_cpus() > 1:
        helper = _Helper()
        try:
            helper.start(params, samples)
            while len(tail) < k - helper.pump():
                tail.append(line(k - 1 - len(tail)))
            head = helper.text(k - len(tail), cells - 1)
        finally:
            helper.stop()
    # Rows the helper did not give, or gave with the wrong number of cells,
    # are written here.
    return (head or [line(i) for i in range(k - len(tail))]) + tail[::-1]


def waveform_csv(grid: TimeGrid, params: np.ndarray, samples: np.ndarray,
                 kind: str | None = None) -> list:
    """A waveform CSV, as its header line and then its rows' lines (the
    helper's, if any, as the chunks read; see ``_encoded_rows``), each
    UTF-8 bytes with its LF. The list is the one copy of the text; it is
    never joined."""
    header = (
        f"# {CSV_MAGIC}, L={grid.n_samples}, t_start={fmt_float(grid.t_start)}, "
        f"t_end={fmt_float(grid.t_end)}, d={params.shape[1]}"
    )
    if kind is not None:
        header += f", kind={kind}"
    return [f"{header}\n".encode("utf-8"), *_encoded_rows(params, samples)]


def training_files(ts: TrainingSet, path) -> dict:
    """The files ``save_training_csv(ts, path)`` writes, for ``_fileio.commit``:
    the CSV at ``path`` and its parsed copy (see the module docstring)."""
    lines = waveform_csv(ts.grid, ts.params, ts.samples)
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line)
    # Each row: the parameters, then the samples' real view (re, im, ...),
    # the layout ``_read_parsed_copy`` views back as complex; written from
    # views of the two arrays, with no joined copy.
    parts = np.ascontiguousarray(ts.samples).view(np.float64)
    return {Path(path): lines, _parsed_copy_path(path): keyed_copy(
        _parsed_header(digest.hexdigest(), ts.k, ts.d, ts.grid.n_samples),
        *(view for row in zip(ts.params, parts) for view in row))}


def save_training_csv(ts: TrainingSet, path) -> None:
    """Serialize a training set; ``load_training_csv`` restores it bit-for-bit.

    Also writes the parsed copy ``<path>.f64`` that later loads read in place
    of the text (see the module docstring). Both files are written, or
    neither (see ``_fileio.commit``).
    """
    commit(training_files(ts, path))


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


def _read_text(path: Path) -> tuple[str, str]:
    """The text of the file at ``path`` and the hex SHA-256 of its bytes."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8"), hashlib.sha256(data).hexdigest()
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"line {lineno}: not valid UTF-8") from exc


def read_waveform_csv(path):
    """Parse a waveform CSV; returns (grid, params, samples, kind, sha256),
    the last the hex SHA-256 of the file's bytes.

    Each row is read with Python's ``float()``, the parser the cell walk
    uses, straight into arrays sized from the header. A row is taken only if
    it is ASCII without '_', its separators are exactly d commas followed by
    L alternating ':' and ',' (so '1:2:3,4' cannot pass as two pairs) and
    all its d + 2L values are finite; any other row is walked cell by cell
    to raise the error that names its bad cell.
    """
    text, digest = _read_text(Path(path))
    lines = text.splitlines()
    del text
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
    for row, (lineno, line) in enumerate(rows):
        values = None
        if line.isascii() and "_" not in line:
            raw = np.frombuffer(line.encode("ascii"), dtype=np.uint8)
            seps = raw[(raw == ord(",")) | (raw == ord(":"))]
            if seps.shape == pattern.shape and (seps == pattern).all():
                try:
                    values = np.fromiter(map(float, line.replace(":", ",").split(",")),
                                         dtype=np.float64, count=d + 2 * l)
                except ValueError:
                    pass
        if values is None or not np.isfinite(values).all():
            _check_row(line, lineno, row, d, l)
            raise ParseError(f"line {lineno}: cells must be ASCII decimal floats")
        params[row] = values[:d]
        flat[row] = values[d:]
    return grid, params, samples, kind, digest


def _parsed_copy_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".f64")


def _parsed_header(sha256: str, k: int, d: int, l: int) -> str:
    return f"{PARSED_MAGIC} sha256={sha256} k={k} d={d} l={l}"


# The hash reads the CSV through one buffer of this many bytes, reused. The
# worker takes the GIL back once per buffer, so a larger one waits on the
# command less often; but the buffer is held while the command runs, so it
# adds to the peak RSS (1 MiB: 8 reads of the 7.6 MB packet-2d CSV).
_HASH_BUFFER = 1 << 20


def _sha256_of(path) -> str | None:
    """Hex SHA-256 of the file at ``path``, or None when it cannot be read.
    ``readinto`` and ``update`` on a large buffer both release the GIL."""
    hasher = hashlib.sha256()
    buffer = bytearray(_HASH_BUFFER)
    view = memoryview(buffer)
    try:
        with open(path, "rb", buffering=0) as fh:
            while size := fh.readinto(buffer):
                hasher.update(view[:size])
    except OSError:
        return None
    return hasher.hexdigest()


def _hash_in_background(path) -> Callable[[], str | None]:
    """Start ``_sha256_of(path)`` on one worker thread; the function returned
    joins it and returns its result."""
    result = []
    worker = threading.Thread(target=lambda: result.append(_sha256_of(path)), daemon=True)
    worker.start()

    def join():
        worker.join()
        return result[0] if result else None
    return join


def _read_parsed_copy(path):
    """((grid, params, samples, kind, sha256), hashed) of the CSV at ``path``
    from its parsed copy, on the digest the copy claims, or None when there is
    no copy that may be read. ``hashed()`` joins the hash of the CSV started
    here and returns its digest, or None if the CSV could not be read.

    A copy is read only when its payload holds k*(d + 2L) little-endian
    doubles for some k >= 1 and its header line is exactly the one
    ``save_training_csv`` writes for k rows, the digest it claims, and the d
    and L of the CSV's own header. Anything else, a missing or unreadable
    file included, returns None, and the caller parses the CSV.
    """
    copy = _parsed_copy_path(path)
    prefix = f"{PARSED_MAGIC} sha256="
    try:
        with open(copy, "rb") as fh:
            claim = fh.readline(1024)
        with open(path, "rb") as fh:
            grid, d, kind = _parse_header(fh.readline().decode("utf-8"))
    except (OSError, UnicodeDecodeError, ParseError):
        return None
    if not claim.startswith(prefix.encode("ascii")):
        return None
    claimed = claim[len(prefix):len(prefix) + 64].decode("ascii", "replace")
    l = grid.n_samples
    hashed = _hash_in_background(path)
    try:
        values = read_keyed_copy(copy, lambda k: _parsed_header(claimed, k, d, l), d + 2 * l)
        if values is None:
            hashed()
            return None
        values = values.reshape(-1, d + 2 * l)
        params = np.array(values[:, :d], dtype=np.float64, order="C")
        samples = np.array(values[:, d:], dtype=np.float64, order="C").view(np.complex128)
    except BaseException:  # no hash thread outlives the call that started it
        hashed()
        raise
    return (grid, params, samples, kind, claimed), hashed


def _training_set(grid, params, samples, kind, digest) -> TrainingSet:
    """The checked training set of a CSV's header and values."""
    if kind is not None:
        raise ParseError(f"line 1: expected a training file, found kind={kind}")
    if params.shape[1] < 1:
        raise ParseError("line 1: training files need d >= 1")
    try:
        return TrainingSet(grid, params, samples, csv_sha256=digest)
    except _RepeatedParameters as exc:
        raise ParseError(f"waveform row {exc.row} repeats the parameters of row "
                         f"{exc.first}") from None


def parse_training_csv(path) -> TrainingSet:
    """A training CSV written by ``save_training_csv``, parsed from its text
    with every check run; its ``csv_sha256`` is the digest of the CSV's bytes.
    Raises ParseError when two rows share a parameter vector."""
    return _training_set(*read_waveform_csv(path))


def open_training_csv(path) -> tuple[TrainingSet, Callable[[], bool]]:
    """A training CSV written by ``save_training_csv``, and ``confirm``.

    The values come from the parsed copy beside the CSV when its header fits
    (see ``_read_parsed_copy``), on the digest it claims, while the CSV's
    SHA-256 runs on one worker thread; ``confirm()`` joins it and returns
    whether the set's ``csv_sha256`` is the CSV's digest. With no such copy
    the set is ``parse_training_csv``'s and ``confirm()`` returns True. A
    caller confirms before it uses anything computed from the set, and on
    False takes ``parse_training_csv``'s set instead. Every check runs either
    way; one that fails on the claim confirms it at once and raises only if
    it holds, the text's set or error standing in otherwise.
    """
    read = _read_parsed_copy(path)
    if read is not None:
        values, hashed = read
        claimed = values[-1]
        try:
            return _training_set(*values), lambda: hashed() == claimed
        except (ParseError, NonFiniteSample):
            if hashed() == claimed:
                raise
    return parse_training_csv(path), lambda: True


def load_training_csv(path) -> TrainingSet:
    """Load a training CSV written by ``save_training_csv``: the set
    ``open_training_csv`` gives, its digest confirmed at once."""
    ts, confirm = open_training_csv(path)
    return ts if confirm() else parse_training_csv(path)
