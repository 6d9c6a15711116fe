import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from besovpde import TorusGrid, dyadic_partition

# numpy warns with ComplexWarning when an imaginary part is dropped in a
# cast to a real dtype; fields are real, so that is a defect.  The class
# lives in numpy.exceptions from numpy 1.25 and in numpy itself before.
_COMPLEX_WARNING = getattr(np, "exceptions", np).ComplexWarning


def pytest_configure(config):
    config.addinivalue_line(
        "filterwarnings",
        f"error::{_COMPLEX_WARNING.__module__}.{_COMPLEX_WARNING.__name__}")


@pytest.fixture(scope="session")
def grid64():
    return TorusGrid(d=1, n=64)


@pytest.fixture(scope="session")
def grid128():
    return TorusGrid(d=1, n=128)


@pytest.fixture(scope="session")
def grid256():
    return TorusGrid(d=1, n=256)


@pytest.fixture(scope="session")
def grid2d():
    return TorusGrid(d=2, n=32)


@pytest.fixture(scope="session")
def part64(grid64):
    return dyadic_partition(grid64)


@pytest.fixture(scope="session")
def part128(grid128):
    return dyadic_partition(grid128)


@pytest.fixture(scope="session")
def part256(grid256):
    return dyadic_partition(grid256)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
