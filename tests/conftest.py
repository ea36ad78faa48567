"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from gammachain import default_partition, load_reference_counts


@pytest.fixture
def partition():
    return default_partition()


@pytest.fixture
def reference_counts():
    return load_reference_counts()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
