"""The one sink of every artifact, and the one owner of every artifact's
text format: numeric tables (``table``), JSON documents (``json_document``)
and ``re:im`` cells of complex values (``_re_im``, by ``_rowtext.re_im``,
the formatter of the waveform-CSV rows too). Every float is written in its
shortest round-trip form. ``keyed_copy``/``read_keyed_copy`` are the one
write and read of every binary copy (``training.csv.f64``, ``basis.f64``
and ``interpolant_<rule>.f64``): an exact ASCII header line, then
little-endian doubles.

The serializers here and elsewhere take no path and return a file's
contents, as bytes or as a list of buffers written one after the other.
``commit`` alone creates, writes and renames files: it writes all the files
of one command or none of them (see its docstring). Two cases are not all
or none: ``verify-theorem`` exiting 1 still writes ``theorem_check.csv``,
its result (see ``cli``), and a rename that fails after others succeeded
is not undone."""

from __future__ import annotations

import contextlib
import errno
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from ._rowtext import re_im

# Each temp file is written through a buffer of this many bytes: a waveform
# CSV arrives as one buffer per row, each too small to be a write of its own.
# The buffer is held beside the file's contents, so it is kept small: at
# 1 MiB it would add a quarter of a 4 MB training CSV to the peak memory of
# writing it.
_WRITE_BUFFER = 1 << 16


def commit(files) -> None:
    """Write ``files``, a map of each path to its bytes or to a list of
    buffers written in turn, all or none.

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
                fh.writelines(data if isinstance(data, list) else [data])
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
    """``re:im`` cells of a row of complex values joined by ',', or of each
    row of a matrix, the rows joined by LF."""
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim == 2:
        return "\n".join(map(_re_im, z))
    return re_im(np.ascontiguousarray(z).view(np.float64).tolist())
