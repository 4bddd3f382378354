"""Atomic file writes, and the one owner of every artifact's text format:
numeric tables (``write_table``), JSON documents (``write_json``) and
``re:im`` cells of complex values (``_re_im``, by ``_rowtext.re_im``, the
formatter of the waveform-CSV rows too). Every float is written in its
shortest round-trip form. The writers elsewhere only say what goes into
each file. ``write_keyed_copy``/``read_keyed_copy`` are the one read and
write of every binary copy (``training.csv.f64``, ``basis.f64`` and
``interpolant_<rule>.f64``): an exact ASCII header line, then little-endian
doubles."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from ._rowtext import re_im


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file and rename, so readers never
    observe a partially written file. The file gets mode 0o666 less the
    umask, as an ordinary ``open`` would give it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        mask = os.umask(0o077)  # the umask is read by setting it; restore it
        os.umask(mask)
        os.chmod(tmp, 0o666 & ~mask)
        try:
            os.replace(tmp, path)
        except OSError as exc:  # name the artifact, not the temp file removed below
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """``atomic_write_bytes`` of ``text`` in UTF-8, line endings untranslated."""
    atomic_write_bytes(path, text.encode("utf-8"))


def write_keyed_copy(path, header: str, values) -> None:
    """Write ``header`` as one ASCII line, then ``values`` as little-endian
    doubles."""
    atomic_write_bytes(path, f"{header}\n".encode("ascii")
                       + np.asarray(values, dtype="<f8").tobytes())


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


def write_table(path, header, rows) -> None:
    """Write a numeric table: a line of the column names ``header``, then one
    line per row, cells separated by ',' (a sequence is one cell of
    space-separated values), LF line endings and a final newline."""
    lines = [",".join(header)]
    lines += [",".join(map(_cell, row)) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path, doc) -> None:
    """Write the JSON document ``doc``, indented by 2, with a final newline."""
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def _re_im(z) -> str:
    """``re:im`` cells of a row of complex values joined by ',', or of each
    row of a matrix, the rows joined by LF."""
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim == 2:
        return "\n".join(map(_re_im, z))
    return re_im(np.ascontiguousarray(z).view(np.float64).tolist())
