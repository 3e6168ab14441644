import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from nhsym import linalg


def test_eig_orders_by_real_then_imag():
    H = np.diag([2.0, -1.0, 2.0 + 1j, 0.0])
    system = linalg.eig(H)
    assert_allclose(system.values, [-1.0, 0.0, 2.0, 2.0 + 1j], atol=1e-12)


def test_eig_right_and_left_residuals():
    rng = np.random.default_rng(0)
    H = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    system = linalg.eig(H)
    scale = np.linalg.norm(H)
    for k in range(6):
        v = system.right_vectors[:, k]
        w = system.left_vectors[:, k]
        assert np.linalg.norm(H @ v - system.values[k] * v) <= 1e-12 * scale
        assert np.linalg.norm(H.T @ w - system.values[k] * w) <= 1e-12 * scale
        assert abs(np.linalg.norm(v) - 1) <= 1e-12
        assert abs(np.linalg.norm(w) - 1) <= 1e-12


def test_eig_deterministic():
    rng = np.random.default_rng(1)
    H = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    a = linalg.eig(H)
    b = linalg.eig(H)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.right_vectors, b.right_vectors)
    assert np.array_equal(a.left_vectors, b.left_vectors)


def test_eig_phase_fix_makes_largest_entry_real():
    rng = np.random.default_rng(2)
    H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    system = linalg.eig(H)
    for k in range(4):
        v = system.right_vectors[:, k]
        top = v[int(np.argmax(np.abs(v)))]
        assert top.real > 0
        assert abs(top.imag) <= 1e-12


def test_eig_validation():
    with pytest.raises(ValueError):
        linalg.eig(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        linalg.eig(np.full((2, 2), np.nan))
    with pytest.raises(ValueError):
        linalg.eig(np.zeros((300, 300)))


def test_nullspace_known_kernel():
    # rank-1 matrix on C^3: kernel dimension 2
    u = np.array([1.0, 2.0, -1.0])
    M = np.outer(u, u)
    K = linalg.nullspace(M)
    assert K.shape == (3, 2)
    assert_allclose(M @ K, 0, atol=1e-12)
    assert_allclose(K.conj().T @ K, np.eye(2), atol=1e-12)


def test_nullspace_trivial():
    K = linalg.nullspace(np.eye(3))
    assert K.shape == (3, 0)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-8])
def test_nullspace_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tol"):
        linalg.nullspace(np.eye(3), tol)


def test_multiplicities_jordan_block():
    J = np.zeros((3, 3), dtype=complex)
    J[0, 1] = J[1, 2] = 1.0
    alg, geo = linalg.multiplicities(J, 0.0)
    assert (alg, geo) == (3, 1)


def test_multiplicities_semisimple():
    H = np.diag([1.0, 1.0, 2.0])
    assert linalg.multiplicities(H, 1.0) == (2, 2)
    assert linalg.multiplicities(H, 2.0) == (1, 1)


def test_multiplicities_warns_on_borderline_cluster():
    # second eigenvalue lands between tol and 2*tol of the center
    H = np.diag([0.0, 1.5e-7, 1.0])
    with pytest.warns(linalg.ClusterWarning):
        alg, geo = linalg.multiplicities(H, 0.0, tol=1e-7)
    assert (alg, geo) == (1, 1)


_entry = st.complex_numbers(min_magnitude=0, max_magnitude=3,
                            allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(arrays(np.complex128, (4, 4), elements=_entry))
def test_eig_backward_error_bound(H):
    # contract: either every returned pair meets the residual bound, or
    # the decomposition refuses with the worst residual attached
    scale = np.linalg.norm(H)
    try:
        system = linalg.eig(H)
    except linalg.ConvergenceError as err:
        assert err.residual > 1e-10 * scale
        return
    assert system.residuals.max() <= 1e-10 * max(scale, 1e-300)
