"""Training data: synthetic waveform families, the uniform time grid, and
CSV ingestion/serialization.

Waveforms are complex time series sampled on a closed uniform grid. Errors
elsewhere in the package are measured in the weighted discrete norm
sqrt(sum |h|^2 dt), which carries the grid's uniform quadrature weight dt
and approximates the continuous L2 norm.

Both waveform CSVs, the training set's and the basis's, are streamed
(``waveform_csv``): the header line, then the rows in blocks of whole rows
of at most ``_TEXT_VALUES`` doubles, each block's text made by one
``_fileio.repr_rows`` call, the bytes ``repr`` gives each value, as the
file is written. So the text is never held whole, and the formatter's
temporaries stay those of one block.

``waveform_csv`` and ``training_files`` return the files' contents and
write nothing; a command's caller commits all its files at once, all or
none, with ``_fileio.commit``, as ``save_training_csv`` does for a training
set's two files. Only a rename that fails after others succeeded is not
undone (see ``_fileio.commit``).

A family is synthesized into one (K, L) array, allocated once and filled
in row blocks of at most ``_BLOCK_CELLS`` samples, so that the formula's
temporaries stay small; ``training_files`` writes the parsed copy from row
views of the set's own arrays. ``generate`` so holds the samples once and
at most one block of the CSV text, with no other copy of either.

A training CSV is parsed once. ``training_files`` gives, beside
``training.csv``, the parsed copy ``training.csv.f64``, by
``_fileio.keyed_copy``: one ASCII line ``emprint-parsed v1
csv=<hex> k=<K> d=<d> l=<L>``, where the digest is the CSV's tree digest
(taken block by block as the CSV is written), then the K x (d + 2L) values
as little-endian doubles, row-major (the parameters, then re, im of each
sample).

The tree digest keys every binary copy of a training CSV's results. Each
leaf is the SHA-256 of one consecutive 1 MiB slice of the CSV's bytes
(``_HASH_LEAF``), and the root is the SHA-256 of an ASCII line naming the
construction, the leaf size and the byte count, followed by the leaves'
digests in order (``_tree_root``). It is not the SHA-256 of the file, but
it keys the copies as strongly, and its leaves can be hashed in parallel.

``open_training_csv`` reads the copy instead of the text when its header
line is exactly the one the CSV's own header and the digest it claims
give. It does not wait for the CSV's digest to do so: one worker lane
hashes the CSV's leaves while the caller works on the claimed digest, and
the ``confirm`` function it returns hashes the leaves still unclaimed on the
caller's own thread, joins the worker and says whether the claim holds
(``_TreeLanes``). A caller confirms before anything it computed is used,
and on a false claim (a stale copy) discards its results and starts again
from ``parse_training_csv``, the text parse. ``load_training_csv`` confirms
at once, so its set always carries a confirmed digest. Every check runs on
either route, so the two differ only in time; a check that fails on the
claim is confirmed at once, and raises only if the claim holds. A copy
that cannot be read stops the lanes without waiting for them. Loads never
write the copy, and deleting it is always safe. A loaded set carries the
CSV's tree digest; ``rbm`` and ``eim`` key their binary copies with it.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ._fileio import commit, fmt_float, keyed_copy, read_keyed_copy, repr_rows


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
    waveform for ``params[k]``. ``csv_digest`` is the hex tree digest of the
    training CSV's bytes (see ``_tree_root``) for a set loaded by
    ``load_training_csv``, and None for a set built in memory.
    """

    grid: TimeGrid
    params: np.ndarray
    samples: np.ndarray
    csv_digest: str | None = None

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

# ``waveform_csv`` formats whole rows in blocks of at most this many doubles
# (at least one row), so that the formatter's temporaries, about 170 bytes a
# double, stay small. The rows do not depend on it.
_TEXT_VALUES = 8192


def waveform_csv(grid: TimeGrid, params: np.ndarray, samples: np.ndarray,
                 kind: str | None = None):
    """A waveform CSV, as an iterator over its bytes: the header line, then
    blocks of whole rows of at most ``_TEXT_VALUES`` doubles, each UTF-8
    with its LFs. A row is its parameters, then its samples' ``re:im``
    cells, each by ``_fileio.repr_rows``. Each block is made as it is
    asked for, so the text is never held whole."""
    header = (
        f"# {CSV_MAGIC}, L={grid.n_samples}, t_start={fmt_float(grid.t_start)}, "
        f"t_end={fmt_float(grid.t_end)}, d={params.shape[1]}"
    )
    yield f"{header}{'' if kind is None else f', kind={kind}'}\n".encode("utf-8")
    parts = np.ascontiguousarray(samples).view(np.float64)
    seps = b"," * params.shape[1] + b":," * (samples.shape[1] - 1) + b":\n"
    rows = max(1, _TEXT_VALUES // len(seps))
    for start in range(0, len(parts), rows):
        yield repr_rows(np.hstack([params[start:start + rows], parts[start:start + rows]]), seps)


def training_files(ts: TrainingSet, path) -> dict:
    """The files ``save_training_csv(ts, path)`` writes, for ``_fileio.commit``:
    the CSV at ``path`` and its parsed copy (see the module docstring). Both
    are iterators, to be written in this order: the CSV's tree digest is
    taken as it is written, and the copy's header, which holds it, is made
    after."""
    digest = _TreeHasher()

    def csv():
        for block in waveform_csv(ts.grid, ts.params, ts.samples):
            digest.update(block)
            yield block

    def copy():
        # Each row: the parameters, then the samples' real view (re, im,
        # ...), the layout ``_read_parsed_copy`` views back as complex;
        # written from views of the two arrays, with no joined copy.
        yield from keyed_copy(
            _parsed_header(digest.hexdigest(), ts.k, ts.d, ts.grid.n_samples),
            *(view for row in zip(ts.params, np.ascontiguousarray(ts.samples).view(np.float64))
              for view in row))
    return {Path(path): csv(), _parsed_copy_path(path): copy()}


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
    """The text of the file at ``path`` and the hex tree digest of its bytes."""
    data = path.read_bytes()
    digest = _TreeHasher()
    digest.update(data)
    try:
        return data.decode("utf-8"), digest.hexdigest()
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"line {lineno}: not valid UTF-8") from exc


def read_waveform_csv(path):
    """Parse a waveform CSV; returns (grid, params, samples, kind, digest),
    the last the hex tree digest of the file's bytes (see ``_tree_root``).

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


def _parsed_header(digest: str, k: int, d: int, l: int) -> str:
    return f"{PARSED_MAGIC} csv={digest} k={k} d={d} l={l}"


# Bytes per leaf of a training CSV's tree digest (see the module docstring);
# the last leaf is shorter, and an empty file has none.
_HASH_LEAF = 1 << 20

# Each lane reads through a buffer of this many bytes, its own: the worker's
# is held while the command runs, as the serial hash's one buffer was, and
# the command's lane makes a second only if it claims a leaf in ``confirm``.
# A lane takes the GIL back after each ``os.preadv`` and each ``update``,
# and the worker waits for it while the command holds it, so a whole leaf
# per read loses the least time (half a leaf per read left eim waiting
# 3.7 ms in its confirm on the chirp-long-classic CSV, a whole leaf 3.0 ms,
# on 2 shared vCPUs).
_HASH_BUFFER = 1 << 20


def _tree_root(size: int, leaves) -> str:
    """The hex root over the leaf digests of ``size`` bytes: the SHA-256 of
    one ASCII line naming the construction, its leaf size and the byte
    count, then the leaves' digests in order."""
    line = f"emprint-csv-digest sha256-tree leaf={_HASH_LEAF} bytes={size}\n"
    return hashlib.sha256(b"".join([line.encode("ascii"), *leaves])).hexdigest()


class _TreeHasher:
    """The tree digest of bytes given in pieces of any size, in order."""

    def __init__(self):
        self.size, self.leaves, self.leaf = 0, [], hashlib.sha256()

    def update(self, data) -> None:
        view = memoryview(data)
        while view:
            take = _HASH_LEAF - self.size % _HASH_LEAF
            self.leaf.update(view[:take])
            self.size += min(take, len(view))
            view = view[take:]
            if self.size % _HASH_LEAF == 0:
                self.leaves.append(self.leaf.digest())
                self.leaf = hashlib.sha256()

    def hexdigest(self) -> str:
        tail = [self.leaf.digest()] if self.size % _HASH_LEAF else []
        return _tree_root(self.size, self.leaves + tail)


def _leaf_digest(fd: int, leaf: int, size: int, buffer: memoryview) -> bytes | None:
    """SHA-256 of leaf ``leaf`` of the file of ``size`` bytes open at ``fd``,
    read by ``os.preadv`` through ``buffer``; None when the file ends early."""
    hasher = hashlib.sha256()
    start, stop = leaf * _HASH_LEAF, min((leaf + 1) * _HASH_LEAF, size)
    while start < stop:
        got = os.preadv(fd, [buffer[:stop - start]], start)
        if not got:
            return None
        hasher.update(buffer[:got])
        start += got
    return hasher.digest()


class _TreeLanes:
    """The tree digest of one file, hashed in two lanes.

    The constructor opens the file and starts the worker lane, which claims
    leaves in order from a lock-protected index and hashes each. ``digest``
    runs the second lane on the caller's thread: it claims whatever leaves
    are left, hashes them, joins the worker and returns the hex root, or
    None when the file could not be read whole or the path no longer names
    the file of that size that was opened. ``stop`` claims no more leaves
    and joins the worker; ``digest`` then returns None. Either closes the
    file, and repeating either returns at once."""

    def __init__(self, path):
        self.path = path
        self.fd = os.open(path, os.O_RDONLY)
        self.opened = os.fstat(self.fd)
        self.leaves = [None] * -(-self.opened.st_size // _HASH_LEAF)
        self.next = 0  # the first leaf no lane has claimed
        self.lock = threading.Lock()
        self.root = None
        self.worker = threading.Thread(target=self._lane, daemon=True)
        self.worker.start()

    def _lane(self) -> None:
        buffer = None  # made on the first claim: a late lane may find none left
        while True:
            with self.lock:
                leaf = self.next
                if leaf >= len(self.leaves):
                    return
                self.next += 1
            buffer = buffer or memoryview(bytearray(_HASH_BUFFER))
            try:
                self.leaves[leaf] = _leaf_digest(self.fd, leaf, self.opened.st_size, buffer)
            except OSError:
                return  # the leaf stays None, so there is no root

    def stop(self) -> None:
        with self.lock:
            self.next = len(self.leaves)
        self.worker.join()
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None

    def digest(self) -> str | None:
        if self.fd is not None:
            try:
                self._lane()
            finally:
                self.stop()
            try:
                now = os.stat(self.path)
            except OSError:
                return None
            if (os.path.samestat(now, self.opened) and now.st_size == self.opened.st_size
                    and all(self.leaves)):
                self.root = _tree_root(self.opened.st_size, self.leaves)
        return self.root


def _hash_in_background(path) -> _TreeLanes:
    """Open the file at ``path`` and start its tree digest on the worker
    lane (see ``_TreeLanes``); raises OSError when it cannot be opened."""
    return _TreeLanes(path)


def _read_parsed_copy(path):
    """((grid, params, samples, kind, digest), lanes) of the CSV at ``path``
    from its parsed copy, on the digest the copy claims, or None when there
    is no copy that may be read. ``lanes`` is the CSV's tree digest started
    here (see ``_TreeLanes``); its ``digest()`` says what the claim is worth.

    A copy is read only when its payload holds k*(d + 2L) little-endian
    doubles for some k >= 1 and its header line is exactly the one
    ``save_training_csv`` writes for k rows, the digest it claims, and the d
    and L of the CSV's own header. Anything else, a missing or unreadable
    file included, returns None, and the caller parses the CSV; the lanes
    then claim no more leaves, and the worker is joined after the one it is
    on, since the parse takes its own digest.
    """
    copy = _parsed_copy_path(path)
    prefix = f"{PARSED_MAGIC} csv="
    try:
        with open(copy, "rb") as fh:
            claim = fh.readline(1024)
        with open(path, "rb") as fh:
            grid, d, kind = _parse_header(fh.readline().decode("utf-8"))
        if not claim.startswith(prefix.encode("ascii")):
            return None
        lanes = _hash_in_background(path)
    except (OSError, UnicodeDecodeError, ParseError):
        return None
    claimed = claim[len(prefix):len(prefix) + 64].decode("ascii", "replace")
    l = grid.n_samples
    try:
        values = read_keyed_copy(copy, lambda k: _parsed_header(claimed, k, d, l), d + 2 * l)
        if values is None:
            lanes.stop()
            return None
        values = values.reshape(-1, d + 2 * l)
        params = np.array(values[:, :d], dtype=np.float64, order="C")
        samples = np.array(values[:, d:], dtype=np.float64, order="C").view(np.complex128)
    except BaseException:  # no lane outlives the call that started it
        lanes.stop()
        raise
    return (grid, params, samples, kind, claimed), lanes


def _training_set(grid, params, samples, kind, digest) -> TrainingSet:
    """The checked training set of a CSV's header and values."""
    if kind is not None:
        raise ParseError(f"line 1: expected a training file, found kind={kind}")
    if params.shape[1] < 1:
        raise ParseError("line 1: training files need d >= 1")
    try:
        return TrainingSet(grid, params, samples, csv_digest=digest)
    except _RepeatedParameters as exc:
        raise ParseError(f"waveform row {exc.row} repeats the parameters of row "
                         f"{exc.first}") from None


def parse_training_csv(path) -> TrainingSet:
    """A training CSV written by ``save_training_csv``, parsed from its text
    with every check run; its ``csv_digest`` is the tree digest of the CSV's
    bytes.
    Raises ParseError when two rows share a parameter vector."""
    return _training_set(*read_waveform_csv(path))


def open_training_csv(path) -> tuple[TrainingSet, Callable[[], bool]]:
    """A training CSV written by ``save_training_csv``, and ``confirm``.

    The values come from the parsed copy beside the CSV when its header fits
    (see ``_read_parsed_copy``), on the digest it claims, while one worker
    lane hashes the CSV's leaves; ``confirm()`` hashes the leaves left on the
    caller's thread, joins the worker and returns whether the set's
    ``csv_digest`` is the CSV's digest. With no such copy the set is
    ``parse_training_csv``'s and ``confirm()`` returns True. A caller
    confirms before it uses anything computed from the set, and on False
    takes ``parse_training_csv``'s set instead. Every check runs either way;
    one that fails on the claim confirms it at once and raises only if it
    holds, the text's set or error standing in otherwise.
    """
    read = _read_parsed_copy(path)
    if read is not None:
        values, lanes = read
        claimed = values[-1]
        try:
            return _training_set(*values), lambda: lanes.digest() == claimed
        except (ParseError, NonFiniteSample):
            if lanes.digest() == claimed:
                raise
        except BaseException:
            lanes.stop()
            raise
    return parse_training_csv(path), lambda: True


def load_training_csv(path) -> TrainingSet:
    """Load a training CSV written by ``save_training_csv``: the set
    ``open_training_csv`` gives, its digest confirmed at once."""
    ts, confirm = open_training_csv(path)
    return ts if confirm() else parse_training_csv(path)
