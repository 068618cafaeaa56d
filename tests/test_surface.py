"""Every public name has a reader outside the tests, and so does every private one.

A name in ``symshift.__all__`` must be mentioned by the library itself
(``__init__.py`` and the name's own definition line do not count), by a demo
or by the benchmark harness.  A function that only a unit test calls is
surface to document, test and carry through every refactor for nothing.
A module-level private name (``def _x``, ``class _X``, ``_X =``; dunders
aside) must be mentioned off its definition line in ``src/``, a demo or the
harness, so that a helper a refactor leaves behind does not stay.  Every
name a module of the library imports must be read in that module.
"""

import ast
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


def _private_names() -> list[str]:
    define = re.compile(r"(?:def|class)\s+(_\w+)|(_\w+)\s*=")
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        for line in path.read_text().splitlines():
            found = define.match(line)
            name = found and (found[1] or found[2])
            if name and not (name.startswith("__") and name.endswith("__")):
                names.append(f"{path.stem}.{name}")
    return names


PRIVATE_READER_LINES = READER_LINES + (PACKAGE / "__init__.py").read_text().splitlines()


@pytest.mark.parametrize("qualified", _private_names())
def test_private_name_has_a_reader(qualified):
    name = qualified.split(".")[1]
    mention = re.compile(rf"\b{re.escape(name)}\b")
    readers = [line for line in PRIVATE_READER_LINES if mention.search(line) and not _defines(line, name)]
    assert readers, f"{qualified} is defined but nothing outside tests/ mentions it"


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Names ``path`` imports that no ``Name`` node reads; an attribute
    chain ``np.linalg.eig`` is read through its root ``Name``, ``np``."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - {"annotations"})


def test_no_unused_imports():
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path))
    }
    assert not unused, f"imported but never read: {unused}"
