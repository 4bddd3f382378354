import os
import stat

import pytest

from emprint._fileio import atomic_write_text


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_file_respects_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "out.csv", "a,b\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "out.csv").stat().st_mode) == mode
    assert (tmp_path / "out.csv").read_text() == "a,b\n"
    assert os.listdir(tmp_path) == ["out.csv"]
