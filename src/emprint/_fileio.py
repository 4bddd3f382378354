"""Small file-writing helpers shared by the CSV/JSON emitters."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


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
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """``atomic_write_bytes`` of ``text`` in UTF-8, line endings untranslated."""
    atomic_write_bytes(path, text.encode("utf-8"))


def fmt_float(x) -> str:
    """Shortest decimal form that round-trips to the same double."""
    return repr(float(x))
