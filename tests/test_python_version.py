"""The package parses as Python 3.10, the oldest version pyproject.toml
accepts, even when the tests run on a newer interpreter."""
import ast
import re
from pathlib import Path

import pytest

import sigmaample

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(Path(sigmaample.__file__).resolve().parent.glob("*.py"))


def test_pyproject_declares_python_3_10():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^requires-python = ">=3\.10"$', text, re.M)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_guard_refuses_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_every_module_is_checked():
    assert {"__init__.py", "cli.py", "engine.py", "intmat.py"} <= {p.name for p in SOURCES}
