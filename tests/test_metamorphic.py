"""Relations between discovery runs that must hold on every input.

Public API only.  A similarity transform maps the solution space of each
relation onto that of the transformed matrix, a relabelling of the sites
keeps every discovered dimension and spectrum verdict, and the two
discovery kernels (spectral, and dense over a caller's basis) answer one
question.  Across layers: the product rule maps the solution spaces of
two relations onto that of a third, and every declared operator that
passes its check lies in the space discovered for its relation.
"""

import itertools

import numpy as np
import pytest

from nhsym import cli, linalg, model, spectra, symmetry
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


# one model of each of the seven CLI presets
_PRESETS = _MODELS + (model.dirac4("b", 1.0, 0.5),
                      model.pyramid("nochiral", 1.0, 0.5, 0.8))


def test_site_permutation_keeps_dimensions_and_verdicts():
    # H' = P H P^T is H with its sites relabelled
    rng = np.random.default_rng(24)
    for m in _PRESETS:
        H = model.to_matrix(m)
        dims = [len(symmetry.discover(H, name))
                for name in symmetry.DISCOVER_RELATIONS]
        held = spectra.classify_spectrum(linalg.eig(H).values).held()
        for _ in range(2):
            perm = rng.permutation(len(H))
            H2 = H[perm][:, perm]
            assert [len(symmetry.discover(H2, name))
                    for name in symmetry.DISCOVER_RELATIONS] == dims, m.name
            assert spectra.classify_spectrum(
                linalg.eig(H2).values).held() == held, m.name


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


# the seven CLI presets at their defaults, then the flake, the wheel and
# the chain at non-default parameters
_PARSER = cli.build_parser()
_CROSS_MODELS = tuple(
    build(_PARSER.parse_args(["check", "--preset", name]))
    for name, build in cli.PRESETS.items()) + (
    model.honeycomb_flake(1.0, 0.7),
    model.rt_wheel(0.75, 1 + 0.6j, 1.5 + 0.4j),
    model.mirror_chain(0.3),
)
_CROSS_IDS = [f"{i}-{m.name}" for i, m in enumerate(_CROSS_MODELS)]


def _spaces(H):
    return {kind: symmetry.discover(H, rel.discover_name)
            for kind, rel in RELATIONS.items()}


def _product_kind(kind_x, kind_y):
    """The kind of X cx(Y) for X of kind_x and Y of kind_y, composing the
    two reflections on a probe value: None for a transposing X, or where
    they compose to the identity, which no kind of the table is."""
    rx, ry = RELATIONS[kind_x], RELATIONS[kind_y]
    if rx.transpose:
        return None
    z = 0.3 + 0.7j
    image = REFLECTIONS[rx.reflection](REFLECTIONS[ry.reflection](z))
    return next((kind for kind, rel in RELATIONS.items()
                 if rel.transpose == ry.transpose
                 and REFLECTIONS[rel.reflection](z) == image), None)


def _span_basis(mats):
    """Orthonormal columns spanning the flattened matrices, rank taken at
    1e-10 of the largest singular value."""
    A = np.array([M.ravel() for M in mats]).T
    U, sigma, _ = np.linalg.svd(A, full_matrices=False)
    return U[:, sigma > 1e-10 * sigma[0]]


def _distance(Q, v):
    """Distance of v from the span of the orthonormal columns Q."""
    return np.linalg.norm(v - Q @ (Q.conj().T @ v))


def _combination(rng, kind, ops):
    """A random complex combination of the operators, as one of ``kind``."""
    c = rng.standard_normal(len(ops)) + 1j * rng.standard_normal(len(ops))
    return SymOp(sum(a * op.matrix for a, op in zip(c, ops)), kind,
                 allow_singular=True)


@pytest.mark.parametrize("m", _CROSS_MODELS, ids=_CROSS_IDS)
def test_product_kind_comes_from_the_table(m):
    H = model.to_matrix(m)
    rng = np.random.default_rng(27)
    spaces = _spaces(H)
    pairs = 0
    for (kind_x, xs), (kind_y, ys) in itertools.product(spaces.items(),
                                                        repeat=2):
        want = _product_kind(kind_x, kind_y)
        if want is None or not xs or not ys:
            continue
        pairs += 1
        for _ in range(3):
            p = symmetry.product(_combination(rng, kind_x, xs),
                                 _combination(rng, kind_y, ys))
            assert p.kind == want, (kind_x, kind_y)
            assert symmetry.check(H, p) <= 1e-13, (kind_x, kind_y)
    assert pairs == (0 if m.name == "pyramid_nochiral" else 12)


@pytest.mark.parametrize("m", _CROSS_MODELS, ids=_CROSS_IDS)
def test_product_spans_the_third_space(m):
    # the paper's first route, bosonic X times nhph C giving the chiral
    # space, and the same for every pair the table composes: span{X cx(Y)}
    # is the solution space of the product's kind.  Spans, not single
    # products: most products of two flake dyads are zero
    H = model.to_matrix(m)
    spaces = _spaces(H)
    for (kind_x, xs), (kind_y, ys) in itertools.product(spaces.items(),
                                                        repeat=2):
        want = _product_kind(kind_x, kind_y)
        if want is None or not xs or not ys:
            continue
        conj = RELATIONS[kind_x].conj
        P = _span_basis([x.matrix @ (y.matrix.conj() if conj else y.matrix)
                         for x in xs for y in ys])
        Q = _span_basis([op.matrix for op in spaces[want]])
        assert P.shape == Q.shape, (kind_x, kind_y)
        assert _distance(Q, P) <= 1e-13, (kind_x, kind_y)
        assert _distance(P, Q) <= 1e-13, (kind_x, kind_y)


@pytest.mark.parametrize("m", _CROSS_MODELS, ids=_CROSS_IDS)
def test_declared_operators_lie_in_the_discovered_space(m):
    H = model.to_matrix(m)
    spaces = _spaces(H)
    for hint in m.symmetry_hints:
        op = symmetry.named_operator(m, hint)
        if not symmetry.check(H, op) <= symmetry.PASS_TOL:
            continue
        v = op.matrix.ravel()
        Q = _span_basis([s.matrix for s in spaces[op.kind]])
        assert _distance(Q, v) <= 1e-13 * np.linalg.norm(v), hint
