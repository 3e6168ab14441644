"""Relations between discovery runs that must hold on every input.

Public API only, but for one look at which discovery kernel decides.  A
similarity transform maps the solution space of each relation onto that
of the transformed matrix, a relabelling of the sites keeps every
discovered dimension and spectrum verdict, and the two discovery kernels
(spectral, and dense over a caller's basis) answer one question.  Across
layers: the product rule maps the solution spaces of two relations onto
that of a third, every declared operator passes its check and lies in the
space discovered for its relation, and an invertible discovered operator
forces its relation's reflection on the spectrum.  Against exact
arithmetic: each discovered dimension, on either kernel, is the nullity
of the relation system over the Gaussian rationals.  And a sweep's
verdicts do not change with the units of the Hamiltonian.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from nhsym import cli, clifford, linalg, model, spectra, symmetry
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


def _seeded_presets(seed, sets=3):
    """Each CLI preset on ``sets`` seeded parameter sets, given as CLI
    text to three decimals."""
    rng = np.random.default_rng(seed)
    for _ in range(sets):
        z = rng.normal(size=(4, 2)).round(3)
        params = ([f"--{name}={a}{b:+}i" for name, (a, b)
                   in zip(("g1", "g2", "g3", "beta"), z)]
                  + [f"--g={rng.uniform(0.5, 2):.3f}",
                     f"--tau={rng.uniform(0, 2):.3f}",
                     f"--delta={rng.uniform(0, 1):.3f}"])
        for name, build in cli.PRESETS.items():
            yield build(_PARSER.parse_args(["check", "--preset", name]
                                           + params))


def test_discovered_dimension_never_falls_as_tol_grows():
    # tol bounds each returned operator's residual on every path, and the
    # dense kernel keeps only what passes, so no tol ends in a
    # RuntimeError.  The seven presets at their defaults and on seeded
    # parameters (4-site ones over basis16, as the CLI searches them), and
    # the raw Jordan sets, which only the dense kernel takes
    inputs = [model.to_matrix(m) for m in _CROSS_MODELS[:len(cli.PRESETS)]
              + tuple(_seeded_presets(45))]
    inputs += [_jordan(blocks) for blocks in _JORDAN_SETS]
    for H in inputs:
        basis = ({"basis": clifford.basis16(),
                  "labels": clifford.basis16_labels()} if len(H) == 4
                 else {})
        for name in symmetry.DISCOVER_RELATIONS:
            dims = [len(symmetry.discover(H, name, tol=tol, **basis))
                    for tol in np.geomspace(1e-9, 1.5, 11)]
            assert dims == sorted(dims), (len(H), name, dims)


# (model, bound on an operator's relative distance from its discovered
# span): 1e-13 on the models above; discovery's own tolerance on the
# seeded ones, where the spectral path holds the span only to about that
# (1.6e-10 on the flake near its Hermitian limit, tau = 0.002, at one of
# 40 seeds of these sets)
_DECLARING = (
    [pytest.param(m, 1e-13, id=i) for m, i in zip(_CROSS_MODELS, _CROSS_IDS)]
    + [pytest.param(m, symmetry.DISCOVER_TOL, id=f"seeded-{i}-{m.name}")
       for i, m in enumerate(_seeded_presets(17))])


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


@pytest.mark.parametrize("m, bound", _DECLARING)
def test_declared_operators_lie_in_the_discovered_space(m, bound):
    H = model.to_matrix(m)
    spaces = _spaces(H)
    for hint in m.symmetry_hints:
        op = symmetry.named_operator(m, hint)
        assert symmetry.check(H, op) <= symmetry.PASS_TOL, hint
        v = op.matrix.ravel()
        Q = _span_basis([s.matrix for s in spaces[op.kind]])
        assert _distance(Q, v) <= bound * np.linalg.norm(v), hint


# (matrix, relation) pairs of the five 4-site presets and the chain on two
# seeded parameter sets; the flake's 169 x 169 exact rank takes seconds
_EXACT = [pytest.param(model.to_matrix(m), kind, False,
                       id=f"{i}-{m.name}-{rel.discover_name}")
          for i, m in enumerate(_seeded_presets(41, sets=2))
          if m.n_sites <= 5 for kind, rel in RELATIONS.items()]
# and the defective matrices, which the spectral kernel declines, so that
# the dense one decides: over the n^2 unit matrices, and over basis16 for
# the wheels of figs 2b and 2c at their exceptional points s = 1, 3/2
_DEFECTIVE = tuple((f"jordan-set{i}", _jordan(blocks))
                   for i, blocks in enumerate(_JORDAN_SETS)) + (
    ("jordan2", spectra.jordan2(0.0)),) + tuple(
    (f"{tag}-s{s:g}", spectra.PROTOCOLS[tag].matrix_at(s))
    for tag in ("2b", "2c") for s in (1.0, 1.5))
_EXACT += [pytest.param(H, kind, True, id=f"{name}-{rel.discover_name}")
           for name, H in _DEFECTIVE for kind, rel in RELATIONS.items()]


def _gaussian_rational(z, domain):
    """z as an element of QQ(i): each part the nearest fraction of
    denominator at most 1000, which is the exact value of a three-decimal
    parameter, or of a sum of them, computed in floating point."""
    parts = [Fraction(x).limit_denominator(1000) for x in (z.real, z.imag)]
    assert abs(complex(*map(float, parts)) - z) <= 1e-12, z
    return domain(*parts)


def _exact_nullity(H, rel):
    """n^2 - rank, over QQ(i), of the n^2 x n^2 system M -> H M - M B for
    the relation's right factor B, with M column-stacked."""
    pytest.importorskip("sympy")
    from sympy.polys.domains import QQ_I
    from sympy.polys.matrices import DomainMatrix
    n = len(H)
    Hq, Bq = ([[_gaussian_rational(z, QQ_I) for z in row] for row in A]
              for A in (H, rel.right(H)))
    zero = QQ_I.zero
    # row i + n j, column k + n l: (H M)_ij has H_ik M_kj, (M B)_ij has
    # M_il B_lj
    rows = [[(Hq[i][k] if j == l else zero) - (Bq[l][j] if i == k else zero)
             for l in range(n) for k in range(n)]
            for j in range(n) for i in range(n)]
    return n * n - DomainMatrix(rows, (n * n, n * n), QQ_I).rank()


@pytest.mark.parametrize("H, kind, defective", _EXACT)
def test_discovered_dimension_is_the_exact_nullity(H, kind, defective):
    rel = RELATIONS[kind]
    want = _exact_nullity(H, rel)
    if defective:
        assert symmetry._eigen_dyads(linalg._unit_scaled(H), kind,
                                     symmetry.DISCOVER_TOL) is None
    assert len(symmetry.discover(H, rel.discover_name)) == want
    if len(H) == 4:
        ops = symmetry.discover(H, rel.discover_name,
                                basis=clifford.basis16(),
                                labels=clifford.basis16_labels())
        assert len(ops) == want


def _forces_reflection(m, kind, rng):
    """Where a random combination of the discovered operators of ``kind``
    is invertible, the spectrum holds the relation's reflection; whether
    that combination was invertible."""
    H = model.to_matrix(m)
    rel = RELATIONS[kind]
    ops = symmetry.discover(H, rel.discover_name)
    if not ops:
        return False
    if not np.linalg.cond(_combination(rng, kind, ops).matrix) < 1e8:
        return False
    held = spectra.classify_spectrum(linalg.eig(H).values).held()
    assert rel.reflection in held, (m.name, rel.discover_name, held)
    return True


def test_invertible_operator_forces_the_spectrum_reflection():
    # the seven CLI presets at their defaults, then on seeded parameters
    rng = np.random.default_rng(43)
    models = _CROSS_MODELS[:len(cli.PRESETS)] + tuple(_seeded_presets(43))
    checked = sum(_forces_reflection(m, kind, rng)
                  for m in models for kind in RELATIONS)
    # not vacuous: 38 pairs have solutions at the defaults alone
    assert checked >= 38


@pytest.mark.parametrize("tag", spectra.PROTOCOLS)
def test_sweep_verdicts_do_not_depend_on_the_units_of_h(tag):
    # 2**k H is exact, so the flags of each step and the zero_crossing and
    # degeneracy events are those of H.  ep_candidate is left out: whether
    # a refined dip deepens enough is decided by rounding (ROADMAP item 13)
    proto = spectra.PROTOCOLS[tag]

    def verdicts(scale):
        result = spectra.sweep(lambda p: scale * proto.matrix_at(p),
                               proto.lo, proto.hi, n_steps=41)
        return ([sorted(step.flags) for step in result.steps],
                [(e.step, e.kind) for e in result.events
                 if e.kind != "ep_candidate"])

    want = verdicts(1.0)
    for k in (-40, -20, -1, 1, 20, 40):
        assert verdicts(2.0 ** k) == want, k


# the flake at its two exceptional points: second order at tau = sqrt(3) - 1,
# third order at sqrt(2).  Each relation has an invertible solution there,
# but the absolute CLASSIFY_TOL, against eigenvalues that err by about
# eps**(1/k) at an EP of order k, reports the reflection broken (ROADMAP
# item 12)
_EP_MISJUDGED = pytest.mark.xfail(
    raises=AssertionError,
    reason="classify_spectrum misjudges a spectrum at an exceptional point "
           "(ROADMAP item 12)")
_FLAKE_EPS = [
    pytest.param(tau, kind, id=f"{name}-{rel.discover_name}",
                 marks=() if name == "sqrt2" and rel.reflection == "origin"
                 else _EP_MISJUDGED)
    for name, tau in (("sqrt3-1", float(np.sqrt(3) - 1)),
                      ("sqrt2", float(np.sqrt(2))))
    for kind, rel in RELATIONS.items()]


@pytest.mark.parametrize("tau, kind", _FLAKE_EPS)
def test_invertible_operator_forces_the_reflection_at_flake_eps(tau, kind):
    rng = np.random.default_rng(44)
    # a failure, not the expected one, if the oracle has nothing to check
    if not _forces_reflection(model.honeycomb_flake(1.0, tau), kind, rng):
        pytest.fail("no invertible combination of the discovered operators")
