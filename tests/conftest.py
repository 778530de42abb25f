"""Shared fixtures: benchmark media and cached traces.

The two benchmark media (single layer and double layer over a fast
half-space) are used throughout; the expensive fine traces are built once
per session and reused by the acceptance tests.
"""

import time

import numpy as np
import pytest
from hypothesis import settings

from lovedisp import Medium, trace_branches

# Same examples on every run, no per-example deadline: the suite runs on
# slow shared hosts, and a property failure must reproduce exactly.
settings.register_profile(
    "tier1", derandomize=True, deadline=None, max_examples=30, database=None
)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def medium_a() -> Medium:
    """Single layer: c = (1000, 10000) m/s, H = 100 m, unit densities."""
    return Medium(mu=[1e6, 1e8], rho=[1.0, 1.0], thickness=[100.0])


@pytest.fixture(scope="session")
def medium_b() -> Medium:
    """Double layer: c = (1000, 1818, 10000) m/s, T = (100, 100) m."""
    return Medium(
        mu=[1e6, 1818.0**2, 1e8], rho=[1.0, 1.0, 1.0], thickness=[100.0, 100.0]
    )


@pytest.fixture(scope="session")
def medium_b_swapped() -> Medium:
    """Layer-swapped double layer: fast layer on top, c = (1818, 1000, 10000)."""
    return Medium(
        mu=[1818.0**2, 1e6, 1e8], rho=[1.0, 1.0, 1.0], thickness=[100.0, 100.0]
    )


def _timed_trace(medium, grid):
    t0 = time.perf_counter()
    branchset = trace_branches(medium, grid)
    return branchset, time.perf_counter() - t0


@pytest.fixture(scope="session")
def trace_a_fine(medium_a):
    """Medium A traced over omega in (0, 1800], step 0.25; with build time."""
    return _timed_trace(medium_a, np.arange(0.25, 1800.01, 0.25))


@pytest.fixture(scope="session")
def trace_b_fine(medium_b):
    """Medium B traced over omega in (0, 1800], step 0.25; with build time."""
    return _timed_trace(medium_b, np.arange(0.25, 1800.01, 0.25))


@pytest.fixture(scope="session")
def trace_b_swapped(medium_b_swapped):
    """Swapped double layer traced to 1800 at step 0.5; with build time."""
    return _timed_trace(medium_b_swapped, np.arange(0.5, 1800.01, 0.5))


@pytest.fixture(scope="session")
def trace_a_coarse(medium_a):
    """Medium A traced at step 1.0 for the mid-weight inversion tests."""
    branchset, _ = _timed_trace(medium_a, np.arange(1.0, 1800.01, 1.0))
    return branchset
