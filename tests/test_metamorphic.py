"""Relations between discovery runs that must hold on every input.

Public API only.  A similarity transform maps the solution space of each
relation onto that of the transformed matrix, and the two discovery
kernels (spectral, and dense over a caller's basis) answer one question.
"""

import numpy as np

from nhsym import model, symmetry
from nhsym.symmetry import REFLECTIONS, RELATIONS, SymOp

_MODELS = (
    model.dirac4("a", 1.0, 0.5),
    model.rt_wheel(0.75, 1 + 0.3j, 1.5 + 0.3j),
    model.pyramid("chiral", 1.0, 0.5, 0.8),
    model.honeycomb_flake(1.0, 0.9),
    model.mirror_chain(0.3),
)


def _right_factor(rel, S):
    """T with M -> S M T mapping the solutions for H onto those for
    S H S^-1: S^-1, conj(S)^-1, S^T or S^dagger."""
    T = S.conj() if rel.conj else S
    return T.T if rel.transpose else np.linalg.inv(T)


def test_similarity_maps_solution_spaces():
    rng = np.random.default_rng(21)
    for m in _MODELS:
        H = model.to_matrix(m)
        n = len(H)
        for _ in range(3):
            G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            S = np.eye(n) + 0.3 * G / np.sqrt(n)
            H2 = S @ H @ np.linalg.inv(S)
            for kind, rel in RELATIONS.items():
                ops = symmetry.discover(H, rel.discover_name)
                found = symmetry.discover(H2, rel.discover_name)
                assert len(found) == len(ops), (m.name, kind)
                T = _right_factor(rel, S)
                for op in ops:
                    mapped = SymOp(S @ op.matrix @ T, kind,
                                   allow_singular=True)
                    assert symmetry.check(H2, mapped) <= 1e-9, (m.name, kind)


def _planted(rng, n, reflection):
    """Diagonalizable n x n matrix whose spectrum is closed under the
    reflection, with one value repeated where n allows."""
    image = REFLECTIONS[reflection]
    z = rng.standard_normal(n // 2) + 1j * rng.standard_normal(n // 2)
    if n >= 4:
        z[-1] = z[0]
    lam = np.concatenate([z, image(z)])
    if n % 2:
        # a value that is its own image
        fixed = {"origin": 0.0, "real": 1.3, "imag": 1.3j}[reflection]
        lam = np.append(lam, fixed)
    V = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return V @ np.diag(lam) @ np.linalg.inv(V)


def _orthonormal(ops):
    return np.linalg.qr(np.array([op.matrix.ravel() for op in ops]).T)[0]


def test_spectral_and_dense_kernels_agree():
    rng = np.random.default_rng(22)
    for rel in RELATIONS.values():
        for n in range(2, 9):
            units = np.eye(n * n).reshape(n * n, n, n)
            for _ in range(2):
                H = _planted(rng, n, rel.reflection)
                spectral = symmetry.discover(H, rel.discover_name)
                dense = symmetry.discover(H, rel.discover_name, basis=units)
                assert len(spectral) == len(dense) > 0, (rel.discover_name, n)
                # principal-angle cosines between the two spans
                cosines = np.linalg.svd(
                    _orthonormal(spectral).conj().T @ _orthonormal(dense),
                    compute_uv=False)
                assert cosines.min() >= 1 - 1e-6, (rel.discover_name, n)


def _jordan(blocks):
    """Direct sum of Jordan blocks, each ``(value, size)``."""
    n = sum(size for _, size in blocks)
    J = np.zeros((n, n), dtype=complex)
    at = 0
    for lam, size in blocks:
        J[at:at + size, at:at + size] = lam * np.eye(size) + np.eye(size, k=1)
        at += size
    return J


# block sets of defective matrices, which discovery hands to the dense
# kernel over the n^2 unit matrices
_JORDAN_SETS = (
    ((1, 2), (-1, 1), (-1, 3)),
    ((1j, 2), (-1j, 2), (1j, 1)),
    ((1 + 2j, 3), (-1 - 2j, 1), (1 - 2j, 2), (-1 + 2j, 1)),
    ((0, 2), (0, 1), (0.5j, 1), (-0.5j, 2)),
    ((0.7, 4), (-0.7, 2), (0.7 + 1j, 1)),
)


def test_dense_kernel_dimension_follows_the_jordan_structure():
    # the solutions of J X = X B, B with blocks (R(lam_j), q_j), number
    # the sum of min(p_i, q_j) over block pairs with lam_i = R(lam_j)
    # (Gantmacher, The Theory of Matrices, vol. 1, ch. VIII); a transpose
    # keeps the block sizes, and a similarity keeps the dimension
    rng = np.random.default_rng(23)
    dims = {}
    for blocks in _JORDAN_SETS:
        n = sum(size for _, size in blocks)
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        S = np.eye(n) + 0.3 * G / np.sqrt(n)
        H = S @ _jordan(blocks) @ np.linalg.inv(S)
        for rel in RELATIONS.values():
            image = REFLECTIONS[rel.reflection]
            want = sum(min(p, q) for lam, p in blocks for mu, q in blocks
                       if lam == image(mu))
            name = rel.discover_name
            dims[blocks, name] = len(symmetry.discover(H, name))
            assert dims[blocks, name] == want, (blocks, name)
    assert [dims[_JORDAN_SETS[0], name]
            for name in symmetry.DISCOVER_RELATIONS] == [6, 8, 6, 6, 6, 8]
