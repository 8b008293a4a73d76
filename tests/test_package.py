"""The package surface: every exported name resolves and README names it."""

import re
from pathlib import Path

import dbelines

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_resolve_and_are_documented():
    text = README.read_text(encoding="utf-8")
    assert len(set(dbelines.__all__)) == len(dbelines.__all__)
    for name in dbelines.__all__:
        assert hasattr(dbelines, name), name
        assert re.search(rf"\b{name}\b", text), name
