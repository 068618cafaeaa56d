"""Every public name has a reader outside the tests.

A name in ``symshift.__all__`` must be mentioned by the library itself
(``__init__.py`` and the name's own definition line do not count), by a demo
or by the benchmark harness.  A function that only a unit test calls is
surface to document, test and carry through every refactor for nothing.
"""

import pathlib
import re

import pytest

import symshift

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "symshift"

# name -> why it stays without a reader
ALLOWED = {
    "replace_sparse": "criterion 09 (tests/test_acceptance.py) pins it, and the "
    "2D replacement counting on the roadmap is to be its first caller",
}


def _reader_lines() -> list[str]:
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    for folder in ("demos", "benchmarks"):
        files += sorted((ROOT / folder).glob("*.py"))
    return [line for p in files for line in p.read_text().splitlines()]


READER_LINES = _reader_lines()


def _defines(line: str, name: str) -> bool:
    return re.match(rf"\s*(def|class)\s+{name}\b|{name}\s*=", line) is not None


@pytest.mark.parametrize("name", sorted(set(symshift.__all__) - set(ALLOWED)))
def test_public_name_has_a_reader(name):
    mention = re.compile(rf"\b{re.escape(name)}\b")
    readers = [line for line in READER_LINES if mention.search(line) and not _defines(line, name)]
    assert readers, f"{name} is exported but nothing outside tests/ reads it"


def test_allowed_names_are_exported():
    assert set(ALLOWED) <= set(symshift.__all__)
