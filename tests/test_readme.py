"""README's ``python`` examples run as written, so the "Library" section
cannot name a function the package no longer has."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_python_examples_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    monkeypatch.chdir(tmp_path)  # an example may write files
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python example {i}", "exec"), {})
