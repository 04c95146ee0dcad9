"""The library quick start in README.md runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    assert BLOCKS
    monkeypatch.chdir(tmp_path)
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), {})
    assert (tmp_path / "run.csv").is_file()
