import os
import stat

import pytest

from emprint._fileio import atomic_write_bytes, atomic_write_text


@pytest.mark.parametrize("write, data", [(atomic_write_text, "a,b\n"),
                                         (atomic_write_bytes, b"a,b\n")],
                         ids=["text", "bytes"])
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_file_respects_umask(tmp_path, umask, mode, write, data):
    old = os.umask(umask)
    try:
        write(tmp_path / "out.csv", data)
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "out.csv").stat().st_mode) == mode
    assert (tmp_path / "out.csv").read_bytes() == b"a,b\n"
    assert os.listdir(tmp_path) == ["out.csv"]
