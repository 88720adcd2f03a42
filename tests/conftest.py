import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import magnetodisk
from magnetodisk import ModelParams, Profile, build_grid, minimize, smallest_eigenpair


@functools.cache
def grid_and_pair(n, grading=2.0):
    """A grid and its threshold eigenpair, built once per test session: every
    minimize and trace_branches takes the pair of its grid."""
    grid = build_grid(n, grading)
    return grid, smallest_eigenpair(grid)


def scaled_phi0(pair, eps):
    """The start eps * phi0 on the pair's grid, which --init-eps gives."""
    return Profile(pair.phi0.grid, eps * pair.phi0.values)


@pytest.fixture(scope="session")
def grid64():
    return grid_and_pair(64)[0]


@pytest.fixture(scope="session")
def pair64():
    return grid_and_pair(64)[1]


@pytest.fixture(scope="session")
def grid256():
    return grid_and_pair(256)[0]


@pytest.fixture(scope="session")
def pair256():
    return grid_and_pair(256)[1]


@pytest.fixture(scope="session")
def grid512():
    return grid_and_pair(512)[0]


@pytest.fixture(scope="session")
def pair512():
    return grid_and_pair(512)[1]


@pytest.fixture(scope="session")
def grid1024():
    return grid_and_pair(1024)[0]


@pytest.fixture(scope="session")
def pair1024():
    return grid_and_pair(1024)[1]


@pytest.fixture(scope="session")
def minimizer256(grid256, pair256):
    """Converged supercritical minimizer shared by field/certificate tests."""
    report = minimize(grid256, ModelParams(mu=2.0), eigenpair=pair256)
    assert report.converged
    return report


@pytest.fixture(scope="session")
def minimizer512(grid512, pair512):
    report = minimize(grid512, ModelParams(mu=2.0), eigenpair=pair512)
    assert report.converged
    return report


def smooth_profile(grid, coeffs, scale=1.0):
    """Deterministic smooth test profile vanishing at r=0."""
    values = np.zeros_like(grid.nodes)
    for j, c in enumerate(coeffs, start=1):
        values += c * np.sin((j - 0.5) * np.pi * grid.nodes)
    values *= scale
    values[0] = 0.0
    return Profile(grid, values)


def fresh_python(*args, env=None, check=True, timeout=None):
    """Run python with the package importable, in a new interpreter with one
    BLAS thread, its environment updated by env."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(magnetodisk.__file__).parents[1]), **(env or {})}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=check, timeout=timeout)
