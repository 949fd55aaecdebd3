# bernsing first: importing it sets one OpenBLAS thread, which numpy
# reads when it is first imported, so the suite runs the CLI's default.
from bernsing import StepWeight, WeightParams, refined_grid

import numpy as np
import pytest


@pytest.fixture(scope="session")
def params():
    return WeightParams(xi=0.5, alpha=1.0)


@pytest.fixture(scope="session")
def sw():
    return StepWeight(beta0=0.5, beta1=0.5)


@pytest.fixture(scope="session")
def grid(params):
    return refined_grid(params)


@pytest.fixture(scope="session")
def light_grid(params):
    return refined_grid(params, uniform=1025, cluster=128)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
