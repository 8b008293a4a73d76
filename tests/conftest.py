"""CLI runs in subprocesses import the same dbelines as the test process,
and the brute-force orbit minima of all codes on n points are computed once
per session."""

import functools
import os
from pathlib import Path

import numpy as np
import pytest

import dbelines
from dbelines.bitset import pair_count

from reference import ref_least_relabelings


def pytest_configure(config):
    src = str(Path(dbelines.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join([src, rest] if rest else [src])


@pytest.fixture(scope="session")
def orbit_minima():
    """orbit_minima(n): the minimum over all n! relabelings of every code
    on n points, by brute force (ref_least_relabelings), in code order and
    read-only, computed once per n.  At n = 6 it takes about 0.6 s."""
    @functools.cache
    def minima(n):
        least, _ = ref_least_relabelings(n, np.arange(1 << pair_count(n), dtype=np.int64))
        least.flags.writeable = False
        return least

    return minima
