"""The one sink of every artifact, and the one owner of every artifact's
text format: numeric tables (``table``), JSON documents (``json_document``),
``re:im`` cells of complex values (``_re_im``) and the rows of a waveform
CSV. Every float is written in its shortest round-trip form, the text
``repr`` gives it. ``keyed_copy``/``read_keyed_copy`` are the one write and
read of every binary copy (``training.csv.f64``, ``basis.f64`` and
``interpolant_<rule>.f64``): an exact ASCII header line, then little-endian
doubles.

``repr_rows`` formats a whole (rows, columns) block of doubles at once, in
numpy, with the bytes ``repr`` gives each value: a waveform CSV's rows and
every ``re:im`` cell go through it. It finds the shortest round-trip digits
as Ryu does (Adams 2018): |x| is scaled to N = |x| 10**k in [1e16, 1e17) in
double-double arithmetic, and the digits are those of the multiple of the
largest power of ten inside N's round-trip interval that is closest to N
(see ``repr_rows``). The few values it cannot decide for certain are written
by ``repr`` itself.

The serializers here and elsewhere take no path and return a file's
contents, as bytes or as an iterable of buffers written one after the
other. ``commit`` alone creates, writes and renames files: it writes all the
files of one command or none of them (see its docstring). Two cases are not
all or none: ``verify-theorem`` exiting 1 still writes ``theorem_check.csv``,
its result (see ``cli``), and a rename that fails after others succeeded is
not undone."""

from __future__ import annotations

import contextlib
import errno
import functools
import json
import os
import tempfile
from pathlib import Path

import numpy as np

# Each temp file is written through a buffer of this many bytes: a binary
# copy arrives as one buffer per row, each too small to be a write of its
# own. The buffer is held while the file is written, so it is kept small.
_WRITE_BUFFER = 1 << 16


def commit(files) -> None:
    """Write ``files``, a map of each path to its bytes or to an iterable of
    buffers written in turn, all or none. The files are written in the
    map's order and each iterable is consumed once, as it is written, so a
    file's buffers may be made while the files before it are written (see
    ``catalog.training_files``).

    First every target is checked: one that is a directory is refused, by
    name, before anything is created (the directories above the targets
    included). Then each file is written to a temp file beside its target,
    with mode 0o666 less the umask, as an ordinary ``open`` would give it.
    Last, the temp files are renamed over their targets, in order. A failure
    before the first rename removes every temp file, and leaves every target
    as it was. A rename that fails after others succeeded is not undone:
    the files renamed before it are the new ones, the rest the old ones, and
    the error names the file whose rename failed. Every temp file left is
    removed on any way out."""
    targets = [Path(path) for path in files]
    for path in targets:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    mask = os.umask(0o077)  # the umask is read by setting it; restore it
    os.umask(mask)
    temps = []  # those not yet renamed
    try:
        for path, data in zip(targets, files.values()):
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
            temps.append(tmp)
            with open(fd, "wb", buffering=_WRITE_BUFFER) as fh:
                fh.writelines([data] if isinstance(data, bytes) else data)
            os.chmod(tmp, 0o666 & ~mask)
        for path in targets:
            try:
                os.replace(temps[0], path)
            except OSError as exc:  # name the artifact, not the temp file removed below
                raise OSError(exc.errno, exc.strerror, str(path)) from exc
            del temps[0]
    finally:
        for tmp in temps:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def keyed_copy(header: str, *arrays) -> list:
    """The binary copy of a sequence of arrays under ``header``: the header
    as one ASCII line, then each array's values in turn, row-major, as
    little-endian doubles, one buffer per array. A C-ordered ``"<f8"``
    array (any float64 one on a little-endian host), a row view included,
    is its own buffer: nothing is copied."""
    return [f"{header}\n".encode("ascii"),
            *(np.ascontiguousarray(a, dtype="<f8") for a in arrays)]


def read_keyed_copy(path, header_for, row: int) -> np.ndarray | None:
    """The doubles of the copy at ``path`` (read-only, flat) when its payload
    holds n >= 1 whole rows of ``row`` doubles and its first line is exactly
    ``header_for(n)``; None for any other file, a missing or unreadable one
    included."""
    try:
        with open(path, "rb") as fh:
            header = fh.readline(1024)
            size = os.fstat(fh.fileno()).st_size - len(header)
            n, rest = divmod(size, 8 * row)
            if n < 1 or rest or header != f"{header_for(n)}\n".encode("ascii"):
                return None
            # Read straight into an aligned array, with no bytes object between.
            values = np.empty(size // 8, dtype="<f8")
            if fh.readinto(values.view(np.uint8)) != size:
                return None
    except OSError:
        return None
    values.flags.writeable = False
    return values


def fmt_float(x) -> str:
    """Shortest decimal form that round-trips to the same double."""
    return repr(float(x))


def _cell(value) -> str:
    if isinstance(value, float):  # numpy's float64 included
        return fmt_float(value)
    if isinstance(value, (tuple, list)):
        return " ".join(map(_cell, value))
    return str(value)


def table(header, rows) -> bytes:
    """A numeric table: a line of the column names ``header``, then one line
    per row, cells separated by ',' (a sequence is one cell of
    space-separated values), LF line endings and a final newline."""
    lines = [",".join(header)]
    lines += [",".join(map(_cell, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def json_document(doc) -> bytes:
    """The JSON document ``doc``, indented by 2, with a final newline."""
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _re_im(z) -> str:
    """``re:im`` cells of each row of the complex matrix ``z``, joined by
    ',', the rows joined by LF, from one ``repr_rows`` call."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    return repr_rows(z.view(np.float64), b":," * (z.shape[1] - 1) + b":\n")[:-1].decode("ascii")


# ---------------------------------------------------------------------------
# The shortest round-trip text of a block of doubles
#
# Each value is laid out in a slot of _SLOT bytes of a uint8 template; bytes
# left 0 are holes, dropped in one pass at the end. A slot's columns:
#   0        '-' or a hole
#   1-5      "0.000": the "0." and leading zeros of 1e-4 <= |x| < 1
#   6-7      holes, so that the digits start on an 8-byte boundary
#   8-41     digit j of 17 at 8 + 2j, then a '.' or a hole at 9 + 2j
#   42-46    'e', the exponent's sign, its hundreds (or a hole), tens, ones
#   47       the value's separator
# Which columns are shown depends only on (sign, form, digit count): the
# template's row for them comes from one table (``_layouts``), and the
# digits are added to its '0's. Trailing zero digits add 0 to holes, which
# stay holes.
# ---------------------------------------------------------------------------

_SLOT = 48

# Dekker's splitter, 2**27 + 1: a double times it splits into two halves of
# 26 bits, whose products are exact.
_SPLIT = 134217729.0

_POW10 = np.array([10 ** i for i in range(18)], dtype=np.int64)


@functools.cache
def _power_of_ten(k: int) -> tuple[float, float]:
    """hi, lo with hi + lo = 10**k to about 2**-107, each the double nearest
    its exact value; from Python ints, whose true division is correctly
    rounded."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    hi = num / den
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


@functools.cache
def _powers_of_ten(k_min: int, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """hi, lo with hi[k - k_min] + lo[k - k_min] = 10**k (``_power_of_ten``)
    for k_min <= k <= k_max: each block asks for the k of its values only,
    so a process makes the few dozen its data needs, not all 565 of
    [1e-280, 1e280]."""
    return tuple(np.array([_power_of_ten(k) for k in range(k_min, k_max + 1)]).T)


@functools.cache
def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The template row (see above) of every (sign, form, digit count) by
    key (24 sign + form) 17 + ndig - 1; the digits of 0..9999 as the uint64
    that adds them to four digit columns; the digits of exponents 0..399 as
    the uint32 that adds them to columns 44-46.

    ``form`` 0-19 is positional, with the decimal point after digit
    decpt = form - 3: for decpt <= 0, "0." and -decpt zeros come first and
    no point follows a digit; otherwise the digits are shown up to the point
    at least, then ".0" if no digit follows. 20-23 has an exponent, negative
    for 22 and 23, of three digits for 21 and 23, and a point after the
    first digit unless it is the only one."""
    form, ndig, column = np.arange(24)[:, None, None], np.arange(1, 18)[:, None], np.arange(17)
    positional = form < 20
    rows = np.zeros((2, 24, 17, _SLOT), dtype=np.uint8)
    rows[..., 1:6] = np.frombuffer(b"0.000", np.uint8) * ((column[:5] + form < 5) & (form <= 3))
    rows[..., 8:42:2] = ord("0") * ((column < ndig) | positional & (column <= form - 3))
    rows[..., 9:42:2] = ord(".") * (positional & (column == form - 4)
                                    | ~positional & (ndig > 1) & (column == 0))
    rows[:, 20:, :, 42:47] = np.frombuffer(b"e+\x0000e+000e-\x0000e-000",
                                           np.uint8).reshape(4, 1, 5)
    rows[1, ..., 0] = ord("-")
    n = np.arange(10_000, dtype=np.int64)
    pair = n[:100] // 10 + n[:100] % 10 * 65536  # tens at byte 0, ones at byte 2
    quads = (pair[:, None] + pair * 2 ** 32).reshape(-1)
    return (rows.reshape(-1, _SLOT), quads.astype(np.uint64),
            (n[:400] // 100 + n[:400] // 10 % 10 * 256 + n[:400] % 10 * 65536).astype(np.uint32))


def _scaled(x: np.ndarray, k: np.ndarray):
    """(A, f, 10**k's hi part): N = x 10**k = A + f, A an int64 and f in
    [0, 1), to within about 1e-14, for doubles x > 0. The product is
    x (hi + lo), with x hi exact by Dekker's two-product."""
    # 16, the k of 1.5, keeps the range of an empty block from being empty.
    k_min = int(k.min(initial=16))
    pow_hi, pow_lo = _powers_of_ten(k_min, int(k.max(initial=16)))
    hi = pow_hi.take(k - k_min)
    product = x * hi
    x_hi = _SPLIT * x
    x_hi -= x_hi - x
    x_lo = x - x_hi
    h_hi = _SPLIT * hi
    h_hi -= h_hi - hi
    h_lo = hi - h_hi
    tail = ((((x_hi * h_hi - product) + x_hi * h_lo) + x_lo * h_hi) + x_lo * h_lo
            + x * pow_lo.take(k - k_min))
    top = product + tail  # a double of 1e16 or more: an integer
    tail -= top - product
    return top.astype(np.int64) + np.floor(tail).astype(np.int64), tail - np.floor(tail), hi


def _places(top: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """The largest d for each interval of the ``gap`` integers up to ``top``
    that holds a multiple of 10**d: the d with top mod 10**d < gap. d = 0
    always holds; each place is tried only on the values the last one held
    for, fewer at each place."""
    d = (top - top // 10 * 10 < gap).astype(np.int64)
    going = (top - top // 100 * 100 < gap).nonzero()[0]
    d[going] += 1
    top, gap, p = top.take(going), gap.take(going), 100
    while going.size:
        p *= 10
        keep = top - top // p * p < gap
        going, top, gap = going[keep], top[keep], gap[keep]
        d[going] += 1
    return d


def _shortest(x: np.ndarray):
    """(digits, d, decpt, fast) of the doubles ``x``: |x| = 0.digits
    10**decpt, digits an int64 of 17 digits whose last d are zeros, for each
    value where ``fast``; the others are left to ``repr`` (see
    ``repr_rows``)."""
    ax = np.abs(x)
    fast = (ax >= 1e-280) & (ax <= 1e280)
    ax[~fast] = 1.5  # any value the arithmetic below takes
    mantissa, exponent = np.frexp(ax)
    fast &= mantissa != 0.5
    k = (16 - np.floor(np.log10(ax))).astype(np.int64)
    a, f, scale = _scaled(ax, k)
    # log10 may round into the next decade within an ulp or two of a power
    # of ten; repr writes those.
    fast &= (a >= 10 ** 16) & (a < 10 ** 17)
    half_ulp = np.ldexp(scale, exponent - 54)  # U, to about 1e-15
    low, high = f - half_ulp, f + half_ulp
    fast &= (np.abs(low - np.rint(low)) >= 1e-7) & (np.abs(high - np.rint(high)) >= 1e-7)
    high = np.floor(high).astype(np.int64)
    d = _places(a + high, high - np.ceil(low).astype(np.int64) + 1)
    # The multiple of 10**d nearest N: N / 10**d rounded to the nearest
    # integer, unless N is within 1e-7 of a midpoint, where ties would decide.
    p = _POW10.take(d)
    q = a // p
    twice_over = 2 * (a - q * p) - p + 2 * f  # 2 (N mod 10**d) - 10**d
    fast &= np.abs(twice_over) >= 2e-7
    q += (twice_over > 0).astype(np.int64)
    roll = d == 17  # 10**17: the digit 1 of the next decade
    return (np.where(roll, np.int64(10 ** 16), q * p), d - roll.astype(np.int64),
            17 - k + roll.astype(np.int64), fast)


def _template(x: np.ndarray, seps: bytes) -> bytes:
    """The slots of the doubles ``x`` (see above), holes included, each
    value's separator from ``seps`` in turn, as bytes: the template and
    every temporary are freed before ``repr_rows`` drops the holes."""
    rows, quads, exponents = _layouts()
    digits, d, decpt, fast = _shortest(x)
    exp_form = (decpt <= -4) | (decpt > 16)  # the exponent is decpt - 1
    shown_power = np.where(exp_form, np.abs(decpt - 1), 0).astype(np.int64)
    form = np.where(exp_form, 20 + 2 * (decpt < 1).astype(np.int64)
                    + (shown_power >= 100).astype(np.int64), decpt + 3).astype(np.int64)
    key = (24 * np.signbit(x).astype(np.int64) + form) * 17 + 16 - d
    key[~fast] = 0
    text = rows.take(key, axis=0)
    last = digits // 10
    text[:, 40] += (digits - last * 10).astype(np.uint8)
    words = text.view(np.uint64)  # word w holds digits 4w - 4 .. 4w - 1
    for word in (4, 3, 2, 1):
        quad = last // 10_000
        words[:, word] += quads.take(last - quad * 10_000)
        last = quad
    text.view(np.uint32)[:, 11] += exponents.take(shown_power)
    text.reshape(-1, len(seps), _SLOT)[..., -1] = np.frombuffer(seps, dtype=np.uint8)
    for i in (~fast).nonzero()[0].tolist():
        value = repr(float(x[i])).encode("ascii").ljust(_SLOT - 1, b"\0")
        text[i, :-1] = np.frombuffer(value, dtype=np.uint8)
    return text.tobytes()


def repr_rows(block, seps: bytes) -> bytes:
    """The text of the (rows, columns) float64 ``block``: row by row, the
    bytes ``repr`` gives each value, followed by the byte ``seps[j]`` of its
    column j.

    N = |x| 10**k lies in [1e16, 1e17) and x's round-trip interval, the
    reals that read back as x, is [N - U, N + U] with U half an ulp of x
    times 10**k. The shortest digits are those of a multiple of 10**d in
    it, d the largest there is one for, and of the one closest to N; a
    multiple 10**17 is the digit 1 of the next decade. Values it cannot
    decide for certain are written by ``repr``: zeros, subnormals, |x|
    outside [1e-280, 1e280] (infinities and NaN included), powers of two
    (whose interval is lopsided), values an ulp or two from a power of ten
    whose log10 rounds into the next decade, and any whose interval end or
    rounding midpoint lies within 1e-7 of an integer, where round-half-even
    would decide. N is known to about 1e-14."""
    values = np.ascontiguousarray(block, dtype=np.float64).reshape(-1)
    return _template(values, seps).translate(None, b"\0")
