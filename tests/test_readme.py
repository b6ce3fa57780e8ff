"""The README's Library section: its export list and its example."""

from __future__ import annotations

import re
from pathlib import Path

import assortplan

README = Path(__file__).resolve().parent.parent / "README.md"


def library_section() -> tuple[str, str]:
    """The section's prose and its code block."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    prose, code = re.fullmatch(r"(.*?)```python\n(.*?)```.*", section, re.DOTALL).groups()
    return prose, code


def test_exports_are_the_listed_names():
    prose, _ = library_section()
    assert sorted(assortplan.__all__) == sorted(re.findall(r"`(\w+)`", prose))
    assert all(hasattr(assortplan, name) for name in assortplan.__all__)


def test_example_runs():
    _, code = library_section()
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["ranking"].slots == ("A", "B", "F")
    assert namespace["findings"]
