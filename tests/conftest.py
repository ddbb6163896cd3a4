import pytest

from sdedisc import discretize


@pytest.fixture(autouse=True)
def no_kept_proposed_plan():
    """Start and leave every test without a kept discretize_proposed plan,
    so that no test sees factorization work saved by another."""
    discretize._last_plan = None
    yield
    discretize._last_plan = None
