"""The database behind the paper's figure and table tests.

Scale 0.05 (about 200k store_sales rows) and seed 7: the identity the
numbers in EXPERIMENTS.md are quoted at.  These fixtures deliberately
shadow any tier-1 fixture of the same name for the tests in this
directory.
"""

import pytest

from repro.workloads.datagen import generate_database, scaled_config
from repro.workloads.driver import WorkloadDriver


@pytest.fixture(scope="session")
def catalog():
    return generate_database(scale=0.05, seed=7)


@pytest.fixture(scope="session")
def config(catalog):
    return scaled_config(catalog)


@pytest.fixture(scope="session")
def driver(catalog, config):
    return WorkloadDriver(catalog, config)
