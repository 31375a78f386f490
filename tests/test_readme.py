"""Run the README's `>>>` examples, so documented outputs cannot go stale."""

from __future__ import annotations

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks() -> list:
    """One param per ```python block that holds an example, id'd by its line."""
    text = README.read_text(encoding="utf-8")
    blocks = []
    for match in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S):
        if ">>>" in match.group(1):
            lineno = text.count("\n", 0, match.start(1))
            blocks.append(pytest.param(lineno, match.group(1), id=f"line{lineno + 1}"))
    return blocks


def test_readme_has_examples():
    assert len(_python_blocks()) >= 3


@pytest.mark.parametrize("lineno,body", _python_blocks())
def test_readme_examples(lineno, body):
    test = doctest.DocTestParser().get_doctest(body, {}, "README.md", str(README), lineno)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.failures == 0, f"README example block at line {lineno + 1} failed"
