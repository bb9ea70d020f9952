"""What an installed package carries: every corpus file is package data."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_every_corpus_file_is_package_data():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    globs = pyproject["tool"]["setuptools"]["package-data"]["silkcheck"]
    package = ROOT / "src" / "silkcheck"
    files = [path for path in (package / "corpus").rglob("*") if path.is_file()]
    assert files
    for path in files:
        assert any(path.relative_to(package).match(glob) for glob in globs), f"{path.name} matches no package-data glob"
