import pytest

from sdedisc import discretize, linalg


@pytest.fixture(autouse=True)
def no_kept_proposed_plan():
    """Start and leave every test without a kept discretize_proposed plan,
    so that no test sees factorization work saved by another."""
    discretize._last_plan = None
    yield
    discretize._last_plan = None


@pytest.fixture
def eigvec_starts(monkeypatch):
    """For every _eigenvector_start call, in order, whether real_schur
    started from the eigenvector basis."""
    taken = []
    start = linalg._eigenvector_start

    def spy(*args):
        hu = start(*args)
        taken.append(hu is not None)
        return hu
    monkeypatch.setattr(linalg, "_eigenvector_start", spy)
    return taken
