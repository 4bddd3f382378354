"""The text of a waveform-CSV row, in the standard library alone.

``row`` is the one formatter of a CSV row and ``re_im`` of its ``re:im``
cells; ``_fileio._re_im`` and ``catalog`` call them, so every sample is
written by one path. repr of a Python float is its shortest round-trip form.

Run as a script, ``python -I -S _rowtext.py D L N``, this module is the
helper interpreter that ``catalog.save_training_csv`` starts to write the
text of the first training rows on a second CPU. It reads N rows from stdin
as native doubles, the N x D parameters and then the N x L samples' re, im
parts, and writes the length of their text as 8 little-endian bytes, then the
text: each row by ``row``, the rows joined by LF. Any other input exits 1.
"""

import sys


def re_im(parts) -> str:
    """``re:im`` cells, joined by ',', of the complex values whose real and
    imaginary parts alternate in the list ``parts``."""
    return ",".join([f"{a!r}:{b!r}" for a, b in zip(parts[::2], parts[1::2])])


def row(params, parts) -> bytes:
    """One CSV line, UTF-8: the floats ``params``, then ``re_im(parts)``."""
    return ",".join([*map(repr, params), re_im(parts)]).encode("utf-8")


def _serve(d: int, l: int, n: int) -> None:
    data = sys.stdin.buffer.read()
    if len(data) != 8 * n * (d + 2 * l):
        sys.exit(1)
    values = memoryview(data).cast("d")
    params, parts = values[:n * d], values[n * d:]
    text = b"\n".join([row(params[i * d:(i + 1) * d].tolist(),
                           parts[2 * i * l:2 * (i + 1) * l].tolist()) for i in range(n)])
    out = sys.stdout.buffer
    out.write(len(text).to_bytes(8, "little"))
    out.write(text)
    out.flush()


if __name__ == "__main__":
    _serve(*map(int, sys.argv[1:]))
