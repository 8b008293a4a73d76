"""CLI runs in subprocesses import the same dbelines as the test process."""

import os
from pathlib import Path

import dbelines


def pytest_configure(config):
    src = str(Path(dbelines.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join([src, rest] if rest else [src])
