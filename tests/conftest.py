import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import magnetodisk
from magnetodisk import ModelParams, Profile, build_grid, minimize, smallest_eigenpair


@pytest.fixture(scope="session")
def grid256():
    return build_grid(256, 2.0)


@pytest.fixture(scope="session")
def pair256(grid256):
    return smallest_eigenpair(grid256)


@pytest.fixture(scope="session")
def grid512():
    return build_grid(512, 2.0)


@pytest.fixture(scope="session")
def pair512(grid512):
    return smallest_eigenpair(grid512)


@pytest.fixture(scope="session")
def grid1024():
    return build_grid(1024, 2.0)


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
