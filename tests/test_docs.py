"""README's library sketch runs as written, and the package exports what it
declares."""

import re
from pathlib import Path

import emprint

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_every_exported_name_resolves():
    missing = [name for name in emprint.__all__ if not hasattr(emprint, name)]
    assert not missing
