"""The README's Python examples run, and ``__all__`` names only real objects."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS)
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {})


def test_star_import_resolves_every_name():
    exec("from portraits import *", {})
