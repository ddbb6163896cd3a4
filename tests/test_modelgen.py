"""Model generator tests: ensemble contracts, fixtures, and the
observer-canonical builder."""

import numpy as np
import pytest

from sdedisc.models import ContinuousModel
from sdedisc.modelgen import (EnsembleSpec, gen_random_system,
                              constant_velocity, observer_canonical)
from sdedisc.linalg import (real_schur, order_schur_zeros_last,
                            tau_zero_default, spectral_norm)


def classify_integrators(a):
    u, t = real_schur(a)
    _, _, k = order_schur_zeros_last(u, t, tau_zero_default(a))
    return a.shape[0] - k


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(n=5, m=4, p=2)
    with pytest.raises(ValueError):
        EnsembleSpec(n=4, m=-1, p=5)
    with pytest.raises(ValueError):
        EnsembleSpec(n=6, m=4, p=2, seed=-1)
    with pytest.raises(ValueError):
        gen_random_system(EnsembleSpec(n=6, m=4, p=2), stream=-1)


def test_reference_spec_eigenstructure():
    spec = EnsembleSpec(n=6, m=4, p=2, seed=42)
    m = gen_random_system(spec)
    ev = np.linalg.eigvals(m.a)
    tau = tau_zero_default(m.a)
    assert int(np.sum(np.abs(ev) <= tau)) == 2
    assert np.max(np.abs(ev.real)) == pytest.approx(1.0, abs=1e-12)
    nonzero = ev[np.abs(ev) > tau]
    assert np.all(nonzero.real < 0.0)


def test_noise_intensity_normalized_and_psd():
    spec = EnsembleSpec(n=6, m=4, p=2, seed=9)
    for stream in range(10):
        m = gen_random_system(spec, stream=stream)
        assert spectral_norm(m.s) == pytest.approx(1.0, rel=1e-12)
        assert np.min(np.linalg.eigvalsh(m.s)) > -1e-12


def test_determinism_and_stream_independence():
    spec = EnsembleSpec(n=6, m=4, p=2, seed=3)
    a = gen_random_system(spec, stream=5)
    b = gen_random_system(spec, stream=5)
    c = gen_random_system(spec, stream=6)
    assert np.array_equal(a.a, b.a) and np.array_equal(a.s, b.s)
    assert not np.array_equal(a.a, c.a)


def test_integrator_count_classified_for_100_seeds():
    for seed in range(100):
        spec = EnsembleSpec(n=6, m=4, p=2, seed=seed)
        m = gen_random_system(spec)
        assert classify_integrators(m.a) == 2, seed


def test_all_stable_ensemble():
    m = gen_random_system(EnsembleSpec(n=5, m=5, p=0, seed=1))
    assert classify_integrators(m.a) == 0
    assert np.max(np.linalg.eigvals(m.a).real) < 0.0


def test_constant_velocity_fixture():
    cv = constant_velocity()
    assert np.array_equal(cv.a, [[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(cv.s, [[0.0, 0.0], [0.0, 1.0]])


def test_observer_canonical_structure():
    # transfer function (s + 4) / ((s^2 + 3 s + 2) s)
    m = observer_canonical([3.0, 2.0], [1.0, 4.0], p=1)
    assert np.array_equal(m.a, [[-3.0, 1.0, 0.0],
                                [-2.0, 0.0, 1.0],
                                [0.0, 0.0, 0.0]])
    b = np.array([[0.0], [1.0], [4.0]])
    assert np.array_equal(m.s, b @ b.T)
    assert classify_integrators(m.a) == 1


def test_observer_canonical_poles():
    m = observer_canonical([3.0, 2.0], [1.0, 0.0], p=0)
    ev = np.sort(np.linalg.eigvals(m.a).real)
    assert np.allclose(ev, [-2.0, -1.0], atol=1e-12)


def test_observer_canonical_validation():
    with pytest.raises(ValueError):
        observer_canonical([1.0, 0.0], [1.0, 1.0])  # pole at origin
    with pytest.raises(ValueError):
        observer_canonical([1.0], [1.0, 2.0])  # length mismatch
    with pytest.raises(ValueError):
        observer_canonical([], [])
    with pytest.raises(ValueError):
        observer_canonical([1.0], [1.0], p=-1)


@pytest.mark.parametrize("width", [np.float64, np.float32])
def test_model_rejects_indefinite_noise(width):
    a = -np.eye(3, dtype=width)
    with pytest.raises(ValueError, match="not positive semidefinite"):
        ContinuousModel(a, np.diag([1.0, 0.5, -0.1]).astype(width))
    # rank-deficient but semidefinite to rounding: accepted
    v = np.array([[1.0], [2.0], [3.0]], dtype=width)
    ContinuousModel(a, v @ v.T)


@pytest.mark.parametrize("width", [np.float16, np.complex128, np.longdouble])
def test_model_rejects_other_widths(width):
    with pytest.raises(TypeError, match="float32 or float64"):
        ContinuousModel(-np.eye(2, dtype=width), np.eye(2, dtype=width))


def test_model_converts_integer_and_bool():
    m = ContinuousModel(np.array([[0, 1], [0, 0]]), np.eye(2, dtype=bool))
    assert m.a.dtype == m.s.dtype == np.float64
    assert np.array_equal(m.s, np.eye(2))
