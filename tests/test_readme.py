"""The library quick start of the README runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)[1]
    # its results are assert lines, kept under python -O too
    exec(compile(block, str(README), "exec", optimize=0), {})
