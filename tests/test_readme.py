"""The library quick start in README.md runs as printed, and its table
of builder parameters is the builders' own."""

import inspect
import re
from pathlib import Path

from gearnet.builders import BUILDERS

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    assert BLOCKS
    monkeypatch.chdir(tmp_path)
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), {})
    assert (tmp_path / "run.csv").is_file()


def test_builder_parameter_table_matches_the_signatures():
    # rows "| `name` | `param` (default), ... |", or "none"
    rows = re.findall(r"^\| `([\w-]+)` \| (.*) \|$", TEXT, re.M)
    table = {name: re.findall(r"`(\w+)` \(([^)]*)\)", cell) for name, cell in rows}
    assert set(table) == set(BUILDERS)
    for name, builder in BUILDERS.items():
        params = inspect.signature(builder).parameters.values()
        assert [(p, float(d)) for p, d in table[name]] == [(p.name, p.default) for p in params]
