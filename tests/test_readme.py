"""The Python code blocks of README.md run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=range(len(BLOCKS)))
def test_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {})
