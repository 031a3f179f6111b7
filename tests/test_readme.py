"""The README's Python blocks run, and each `print` prints the value its
``# value`` comment names: the leading words of the comment, one per printed
word, compared as numbers to 1e-9 when both read as numbers (so ``-1.0``
matches ``-0.9999999999999996``) and as text otherwise."""

import contextlib
import io
import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def noted_values(block: str) -> list[list[str]]:
    """The words of each `print` line's comment, in order; [] without one."""
    return [line.partition("#")[2].split() for line in block.splitlines()
            if line.startswith("print(")]


def same(printed: str, noted: str) -> bool:
    noted = noted.rstrip(":,")
    try:
        return math.isclose(float(printed), float(noted), rel_tol=1e-9, abs_tol=1e-9)
    except ValueError:
        return printed == noted


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_prints_its_comments(block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = [line.split() for line in out.getvalue().splitlines()]
    noted = noted_values(block)
    assert len(printed) == len(noted)
    for words, note in zip(printed, noted):
        assert len(note) >= len(words), f"{words} has no comment naming it"
        assert all(same(w, n) for w, n in zip(words, note)), f"printed {words}, noted {note}"
