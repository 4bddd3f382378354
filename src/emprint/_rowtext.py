"""The text of a waveform-CSV row, in the standard library alone.

``row`` is the one formatter of a CSV row and ``re_im`` of its ``re:im``
cells; ``_fileio._re_im`` and ``catalog`` call them, so every sample is
written by one path. repr of a Python float is its shortest round-trip form.

Run as a script, ``python -I -S _rowtext.py D L N``, this module is the
helper interpreter that ``catalog`` starts to write the lines of a waveform
CSV from the top while the caller writes them from the bottom. It reads N
rows from stdin as native doubles, the N x D parameters first and then each
row's L samples' re, im parts in turn, and writes each row's line by
``row`` to stdout as soon as that row has arrived and been formatted. Input
that ends early exits 1; the lines already written stand.
"""

import sys


def re_im(parts) -> str:
    """``re:im`` cells, joined by ',', of the complex values whose real and
    imaginary parts alternate in the list ``parts``."""
    return ",".join([f"{a!r}:{b!r}" for a, b in zip(parts[::2], parts[1::2])])


def row(params, parts) -> bytes:
    """One CSV line, UTF-8 with its LF: the floats ``params``, then
    ``re_im(parts)``."""
    return (",".join([*map(repr, params), re_im(parts)]) + "\n").encode("utf-8")


def _read(size: int) -> memoryview:
    """The next ``size`` bytes of stdin as doubles; exits 1 if it ends first."""
    data = sys.stdin.buffer.read(size)
    if len(data) != size:
        sys.exit(1)
    return memoryview(data).cast("d")


def _serve(d: int, l: int, n: int) -> None:
    params = _read(8 * n * d)
    for i in range(n):
        sys.stdout.buffer.write(row(params[i * d:(i + 1) * d].tolist(), _read(16 * l).tolist()))
        sys.stdout.buffer.flush()


if __name__ == "__main__":
    _serve(*map(int, sys.argv[1:]))
