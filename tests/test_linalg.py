import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from nhsym import linalg, spectra


def test_eig_orders_by_real_then_imag():
    H = np.diag([2.0, -1.0, 2.0 + 1j, 0.0])
    system = linalg.eig(H)
    assert_allclose(system.values, [-1.0, 0.0, 2.0, 2.0 + 1j], atol=1e-12)


def test_eig_right_and_left_residuals():
    rng = np.random.default_rng(0)
    H = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    system = linalg.eig(H)
    # left eigenvectors of H are the right eigenvectors of H.T
    left = linalg.eig(H.T)
    scale = np.linalg.norm(H)
    assert_allclose(left.values, system.values, rtol=0, atol=1e-12 * scale)
    V = system.right_vectors
    assert_array_equal(system.residuals,
                       np.linalg.norm(H @ V - V * system.values, axis=0))
    for k in range(6):
        v = system.right_vectors[:, k]
        w = left.right_vectors[:, k]
        assert np.linalg.norm(H @ v - system.values[k] * v) <= 1e-12 * scale
        assert np.linalg.norm(w @ H - left.values[k] * w) <= 1e-12 * scale
        assert abs(np.linalg.norm(v) - 1) <= 1e-12
        assert abs(np.linalg.norm(w) - 1) <= 1e-12


def test_eig_returns_only_values_right_vectors_and_residuals():
    names = [f.name for f in dataclasses.fields(linalg.EigenSystem)]
    assert names == ["values", "right_vectors", "residuals"]
    # the residual bound is TOL_EIG; there is no per-call tolerance
    with pytest.raises(TypeError):
        linalg.eig(np.eye(2), tol=1e-10)


def test_eig_deterministic():
    rng = np.random.default_rng(1)
    H = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    a = linalg.eig(H)
    b = linalg.eig(H)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.right_vectors, b.right_vectors)
    assert np.array_equal(a.residuals, b.residuals)


def _convention_inputs():
    """The six sweep protocols at a few parameters, then seeded complex
    and real matrices of 1 to 32 sites."""
    for proto in spectra.PROTOCOLS.values():
        for p in np.linspace(proto.lo, proto.hi, 5):
            yield proto.matrix_at(p)
    rng = np.random.default_rng(2)
    for n in range(1, 33):
        yield rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        yield rng.normal(size=(n, n))


def test_eig_phase_fix_makes_largest_entry_real():
    # LAPACK zgeev's convention: unit 2-norm, and the entry of largest
    # |v|^2 made real and positive, which |v| may rank a few ulps apart
    eps = np.finfo(float).eps
    for H in _convention_inputs():
        V = linalg.eig(H).right_vectors
        assert np.all(np.abs(np.linalg.norm(V, axis=0) - 1) <= 1e-15)
        for v in V.T:
            size = np.abs(v)
            near = v[size >= size.max() * (1 - 4 * eps)]
            assert np.any((near.imag == 0) & (near.real > 0))


def test_eig_returns_lapack_columns_sorted():
    # the columns of np.linalg.eig of the complex matrix, bit for bit,
    # sorted by real then imaginary part with ties in LAPACK's order
    for H in _convention_inputs():
        w, vr = np.linalg.eig(np.asarray(H, dtype=complex))
        order = np.lexsort((w.imag, w.real))
        system = linalg.eig(H)
        assert_array_equal(system.values, w[order])
        assert_array_equal(system.right_vectors, vr[:, order])


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
    K = linalg.nullspace(M, 1e-8)
    assert K.shape == (3, 2)
    assert_allclose(M @ K, 0, atol=1e-12)
    assert_allclose(K.conj().T @ K, np.eye(2), atol=1e-12)


def test_nullspace_trivial():
    K = linalg.nullspace(np.eye(3), 1e-8)
    assert K.shape == (3, 0)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-8])
def test_nullspace_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tol"):
        linalg.nullspace(np.eye(3), tol)


def test_multiplicities_jordan_block():
    J = np.zeros((3, 3), dtype=complex)
    J[0, 1] = J[1, 2] = 1.0
    alg, geo = linalg.multiplicities(J, 0.0, tol=1e-7)
    assert (alg, geo) == (3, 1)
    huge = 2.0**530
    assert linalg.multiplicities(J * huge, 0.0, tol=huge * 1e-7) == (3, 1)


def test_multiplicities_semisimple():
    H = np.diag([1.0, 1.0, 2.0])
    assert linalg.multiplicities(H, 1.0, tol=1e-7) == (2, 2)
    assert linalg.multiplicities(H, 2.0, tol=1e-7) == (1, 1)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-7])
def test_multiplicities_rejects_bad_tolerance(tol):
    # a NaN radius used to count nothing: (0, 0) for the identity
    with pytest.raises(ValueError, match="tol"):
        linalg.multiplicities(np.eye(2), 1.0, tol=tol)


def test_multiplicities_refuses_non_finite_center():
    # numpy's SVD used to fail on it with "SVD did not converge"
    with pytest.raises(ValueError, match="center must be finite"):
        linalg.multiplicities(np.eye(2), np.nan, tol=1e-7)


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
@example(np.full((4, 4), 2.94365894e-170, dtype=complex))
def test_eig_backward_error_bound(H):
    # contract: either every returned pair meets the residual bound, or
    # the decomposition refuses with the worst residual attached; the
    # scale-safe norm, since np.linalg.norm(H) underflows to 0 for entries
    # below about 1e-162 and would demand residuals of 1e-310
    scale = linalg._fro_norm(H)
    try:
        system = linalg.eig(H)
    except linalg.ConvergenceError as err:
        assert err.residual > 1e-10 * scale
        return
    assert system.residuals.max() <= 1e-10 * max(scale, 1e-300)


def test_eig_of_empty_matrix():
    system = linalg.eig(np.zeros((0, 0)))
    assert system.values.shape == (0,)
    assert system.right_vectors.shape == (0, 0)
    assert system.residuals.shape == (0,)


@pytest.mark.parametrize("power", [-600, 0, 530])
def test_fro_norm_survives_overflowing_squares(power):
    # np.linalg.norm squares the entries: inf above about 1e154, and 0
    # below about 1e-162, where the power-of-two rescaled norm is exact
    rng = np.random.default_rng(3)
    H = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    scale = 2.0 ** power
    assert linalg._fro_norm(H * scale) == np.linalg.norm(H) * scale
    assert linalg._fro_norm(np.zeros((3, 3), dtype=complex)) == 0.0


@pytest.mark.parametrize("power", [-600, 600])
def test_eig_residuals_survive_extreme_scale(power):
    # the residual norms squared their entries: inf above about 1e154, so
    # a correct decomposition failed its bound, and 0 below about 1e-154,
    # so the bound passed whatever the vectors were
    rng = np.random.default_rng(0)
    H = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    system = linalg.eig(H * 2.0**power)
    V, w = system.right_vectors, system.values * 2.0**-power
    assert_array_equal(system.residuals * 2.0**-power,
                       np.linalg.norm(H @ V - V * w, axis=0))
    assert 0 < system.residuals.max() <= (linalg.TOL_EIG
                                          * linalg._fro_norm(H * 2.0**power))


@pytest.mark.parametrize("power", [-600, 0, 600])
def test_fro_norm_of_a_stack_matches_each_matrix(power):
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(6, 4, 3)) + 1j * rng.normal(size=(6, 4, 3))
    stack[1] *= 2.0**-40
    stack[2] = 0
    norms = linalg._fro_norm(stack * 2.0**power)
    assert norms.shape == (6,)
    assert_array_equal(norms * 2.0**-power,
                       [np.linalg.norm(A) for A in stack])
    # a non-finite matrix is summed as it is
    stack[3, 0, 0] = complex(np.inf, 0.0)
    assert_array_equal(np.isinf(linalg._fro_norm(stack)),
                       [False, False, False, True, False, False])
