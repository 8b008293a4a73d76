"""CLI runs in subprocesses import the same dbelines as the test process,
and the factorial filter of all codes on n points runs once per session."""

import functools
import os
from pathlib import Path

import numpy as np
import pytest

import dbelines
from dbelines import sweep as sw
from dbelines.bitset import pair_count


def pytest_configure(config):
    src = str(Path(dbelines.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join([src, rest] if rest else [src])


@pytest.fixture(scope="session")
def orbit_minima():
    """orbit_minima(n): the minimum over all n! relabelings
    (sw.canonical_min) of every code on n points, in code order and
    read-only, computed once per n.  At n = 6 it takes about 1.5 s."""
    @functools.cache
    def minima(n):
        least = sw.canonical_min(n, np.arange(1 << pair_count(n), dtype=np.int64))
        least.flags.writeable = False
        return least

    return minima
