import inspect

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from nhsym import cli, clifford, linalg, model, spectra, symmetry
from nhsym.clifford import gamma
from nhsym.symmetry import (ANTILINEAR_ANTICOMMUTE, ANTILINEAR_COMMUTE,
                            DAGGER_MINUS, DAGGER_PLUS, LINEAR_ANTICOMMUTE,
                            TRANSPOSE_MINUS, SymOp, check)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


# --- the residual per kind ------------------------------------------------

def test_check_linear_anticommute():
    assert check(SX, SymOp(SZ, LINEAR_ANTICOMMUTE)) == 0.0
    # {sx, sx} = 2 I: ||2I|| / (||sx|| ||sx||) = sqrt(2)
    assert check(SX, SymOp(SX, LINEAR_ANTICOMMUTE)) == pytest.approx(np.sqrt(2))


def test_check_antilinear_kinds():
    # purely imaginary H anticommutes with plain conjugation
    assert check(1j * SZ, SymOp(np.eye(2), ANTILINEAR_ANTICOMMUTE)) == 0.0
    assert check(1j * SX, SymOp(SX, ANTILINEAR_ANTICOMMUTE)) == 0.0
    # real H commutes with it instead
    assert check(SX, SymOp(np.eye(2), ANTILINEAR_COMMUTE)) == 0.0
    assert check(1j * SZ, SymOp(np.eye(2), ANTILINEAR_COMMUTE)) > 0.1


def test_check_transpose_and_dagger_kinds():
    # sy pairs with every traceless 2x2; an identity component breaks it
    assert check(0.3j * SZ + 0.8 * SX, SymOp(SY, TRANSPOSE_MINUS)) == 0.0
    assert check(np.eye(2) + SX, SymOp(SY, TRANSPOSE_MINUS)) == pytest.approx(1.0)
    # Hermitian H: eta H^dagger - H eta = [eta, H]
    Hh = SX
    assert check(Hh, SymOp(np.eye(2), DAGGER_PLUS)) == 0.0
    # anti-Hermitian H anticommutes with identity under dagger
    assert check(1j * SX, SymOp(np.eye(2), DAGGER_MINUS)) == 0.0


def test_check_dimension_and_zero_guards():
    with pytest.raises(ValueError):
        check(np.eye(3), SymOp(SZ, LINEAR_ANTICOMMUTE))
    assert check(np.zeros((2, 2)), SymOp(SZ, LINEAR_ANTICOMMUTE)) == 0.0


def test_check_extreme_magnitudes():
    # ||H||_F overflows to inf although every entry is finite; the true
    # relative residual 1e300 / (sqrt(2) * 1.5e308) is a clear failure
    H = np.diag([1.5e308, -1.5e308 + 1e300]).astype(complex)
    op = SymOp(np.array([[0, 1], [0, 0]]), LINEAR_ANTICOMMUTE)
    assert check(H, op) == pytest.approx(1e300 / 1.5e308 / np.sqrt(2),
                                         rel=1e-12)
    # power-of-two rescaling is exact, so the residual is scale-free
    H = SX + 0.3j * SZ
    op = SymOp(SY + 0.1 * SZ, TRANSPOSE_MINUS)
    for k in (-1000, -500, 0, 500, 1020):
        assert check(np.ldexp(1.0, k) * H, op) == check(H, op)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_check_rejects_non_finite_residual():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="not finite"):
            check(np.array([[0, bad], [1, 0]]), SymOp(SZ, LINEAR_ANTICOMMUTE))


def _unit_scaled_one(A):
    # the per-matrix rescaling that the stacked one must reproduce exactly;
    # a NaN in a real or an imaginary part leaves the matrix as it is
    peak = np.maximum(np.max(np.abs(A.real), initial=0.0),
                      np.max(np.abs(A.imag), initial=0.0))
    if not 0 < peak < np.inf:
        return A
    return A * np.ldexp(1.0, -max(int(np.frexp(peak)[1]), -1021))


def test_unit_scaled_stack_matches_per_matrix():
    rng = np.random.default_rng(3)
    mats = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            for _ in range(3)]
    mats[1] = mats[1] * 1e300
    subnormal = np.zeros((3, 3), dtype=complex)
    subnormal[0, 1], subnormal[2, 2] = 5e-324, -3e-320j
    nan_imag = mats[0].copy()
    nan_imag[1, 2] = complex(1.0, np.nan)  # finite real parts, NaN imaginary
    mats += [np.zeros((3, 3), dtype=complex), subnormal, nan_imag,
             np.where(np.eye(3) > 0, np.inf, mats[2]),
             np.full((3, 3), -0.0 - 0.0j)]
    stack = np.array(mats)
    scaled = symmetry._unit_scaled(stack)
    for A, got in zip(stack, scaled):
        want = _unit_scaled_one(A)
        assert got.tobytes() == want.tobytes()
        assert symmetry._unit_scaled(A).tobytes() == want.tobytes()
    assert symmetry._unit_scaled(stack[:0]).shape == (0, 3, 3)


def _residual_one(H, kind, M):
    # the per-operator residual that the stacked one must reproduce
    H, M = _unit_scaled_one(H), _unit_scaled_one(M)
    R = symmetry.RELATIONS[kind].residual(H, M)
    denom = np.linalg.norm(H) * np.linalg.norm(M)
    return 0.0 if denom == 0 else np.linalg.norm(R) / denom


def test_stacked_residuals_match_per_operator_across_blocks():
    rng = np.random.default_rng(4)
    H = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    k = 19
    mats = rng.normal(size=(k, 5, 5)) + 1j * rng.normal(size=(k, 5, 5))
    mats[k // 2] = 0
    for kind in symmetry.KINDS:
        # _residuals takes H as discover and check pass it, unit scaled
        got = symmetry._residuals(symmetry._unit_scaled(H), kind, mats)
        assert got[k // 2] == 0.0
        # equal up to rounding: BLAS may round differently with the
        # alignment of an operator inside the stack
        assert_allclose(got, [_residual_one(H, kind, M) for M in mats],
                        rtol=1e-14, atol=0)
        # check scales H itself, so a huge H gives the same residual
        for M in mats[:3]:
            op = SymOp(M, kind, allow_singular=True)
            assert_allclose(check(1e200 * H, op), check(H, op),
                            rtol=1e-14, atol=0)


def test_dense_basis_sums_are_within_the_summation_bound(monkeypatch):
    # with inexact products a solution's sum over the basis may round
    # otherwise than a per-solution loop, but no entry further than twice
    # the recursive-summation bound (k + 2) eps sum_a |c_a| |B_a|
    coeffs = []
    real = symmetry._coefficient_label
    monkeypatch.setattr(symmetry, "_coefficient_label",
                        lambda c, labels: coeffs.append(c) or real(c, labels))
    rng = np.random.default_rng(5)
    H = model.to_matrix(model.dirac4("a", 1.0, 0.5))
    k = 16
    mats = rng.normal(size=(k, 4, 4)) + 1j * rng.normal(size=(k, 4, 4))
    found = 0
    for relation in symmetry.DISCOVER_RELATIONS:
        del coeffs[:]
        ops = symmetry.discover(H, relation, basis=mats)
        assert len(ops) == len(coeffs)
        found += len(ops)
        for op, c in zip(ops, coeffs):
            loop = sum(c[a] * mats[a] for a in range(k))
            bound = (2 * (k + 2) * np.finfo(float).eps
                     * np.tensordot(np.abs(c), np.abs(mats), 1))
            assert np.all(np.abs(op.matrix - loop) <= bound), relation
    assert found > 0


def test_symop_refuses_zero_operator():
    # every relation holds for M = 0, so check would pass it with residual 0
    for kind in symmetry.KINDS:
        for zero in (np.zeros((3, 3)), np.full((2, 2), -0.0 - 0.0j)):
            with pytest.raises(ValueError, match="operator is zero"):
                SymOp(zero, kind, allow_singular=True)


def test_symop_keeps_a_read_only_copy():
    # emptying the caller's array once made the operator zero after its
    # zero test, and check([[0, 1], [2, 0]], op) a false 0.0
    A = np.eye(2, dtype=complex)
    op = SymOp(A, LINEAR_ANTICOMMUTE)
    A[:] = 0
    assert_array_equal(op.matrix, np.eye(2))
    assert check([[0, 1], [2, 0]], op) == pytest.approx(np.sqrt(2))
    with pytest.raises(ValueError, match="read-only"):
        op.matrix[0, 0] = 0


def test_symop_validation():
    with pytest.raises(ValueError):
        SymOp(SZ, "mystery")
    with pytest.raises(ValueError, match="operator must be square"):
        SymOp(np.zeros((2, 3)), LINEAR_ANTICOMMUTE)
    with pytest.raises(ValueError, match="operator has non-finite"):
        SymOp(np.full((2, 2), np.inf), LINEAR_ANTICOMMUTE)
    # the 1..256 site range of operator files holds for built operators too
    with pytest.raises(ValueError, match="operator exceeds the dense cap"):
        SymOp(np.eye(257), LINEAR_ANTICOMMUTE)
    singular = np.diag([1.0, 0.0])
    with pytest.raises(ValueError, match="allow_singular"):
        SymOp(singular, TRANSPOSE_MINUS)
    op = SymOp(singular, TRANSPOSE_MINUS, allow_singular=True)
    assert op.allow_singular
    # linear kinds have no invertibility requirement
    SymOp(singular, LINEAR_ANTICOMMUTE)


# --- products -------------------------------------------------------------

def test_product_of_rt_and_nhph_is_chiral_on_flake():
    m = model.honeycomb_flake(1.0, 0.9)
    H = model.to_matrix(m)
    X = model.lattice_operator(m, "mirror2")
    C = model.lattice_operator(m, "sublattice")
    pi = symmetry.product(SymOp(X, ANTILINEAR_COMMUTE),
                          SymOp(C, ANTILINEAR_ANTICOMMUTE))
    assert pi.kind == LINEAR_ANTICOMMUTE
    assert check(H, pi) == 0.0
    assert_array_equal(pi.matrix, X @ C)


def test_product_constructors_take_no_label():
    assert list(inspect.signature(symmetry.product).parameters) == ["x", "y"]


def test_product_refuses_transposing_x_and_equal_reflections():
    refused = 0
    for kx, rx in symmetry.RELATIONS.items():
        for ky, ry in symmetry.RELATIONS.items():
            x, y = SymOp(SY, kx), SymOp(SX, ky)
            if rx.transpose or rx.reflection == ry.reflection:
                refused += 1
                with pytest.raises(ValueError, match=f"{kx} times {ky}"):
                    symmetry.product(x, y)
            else:
                symmetry.product(x, y)
    # all three transposing x, and one y of each transpose flag per
    # reflection of a non-transposing x
    assert refused == 18 + 6
    with pytest.raises(ValueError, match="shape mismatch"):
        symmetry.product(SymOp(SX, ANTILINEAR_COMMUTE),
                         SymOp(np.eye(3), LINEAR_ANTICOMMUTE))


def test_product_keeps_the_invertibility_check():
    # a singular antilinear X times an invertible dagger-minus operator
    # is a singular transpose-minus operator, refused unless a factor
    # allows it
    X = SymOp(np.diag([1.0, 0.0]), ANTILINEAR_COMMUTE)
    with pytest.raises(ValueError, match="singular"):
        symmetry.product(X, SymOp(SZ, DAGGER_MINUS))
    eta = symmetry.product(X, SymOp(SZ, DAGGER_MINUS, allow_singular=True))
    assert eta.kind == TRANSPOSE_MINUS and eta.allow_singular


def test_pseudo_chiral_product_transforms_covariantly():
    # a valid (H, X, zeta) triple stays valid under unitary change of
    # basis with X -> U X U^T and zeta -> U zeta U^dagger
    m = model.mirror_chain(0.45)
    H0 = model.to_matrix(m)
    X0 = model.lattice_operator(m, "parity")
    zeta0 = model.lattice_operator(m, "sublattice")
    rng = np.random.default_rng(8)
    A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    U = np.linalg.qr(A)[0]
    H = U @ H0 @ U.conj().T
    X = SymOp(U @ X0 @ U.T, ANTILINEAR_COMMUTE)
    zeta = SymOp(U @ zeta0 @ U.conj().T, DAGGER_MINUS)
    assert check(H, X) <= 1e-14
    assert check(H, zeta) <= 1e-14
    eta = symmetry.product(X, zeta)
    assert eta.kind == TRANSPOSE_MINUS
    assert check(H, eta) <= 1e-13
    assert_allclose(eta.matrix, U @ (X0 @ zeta0) @ U.T, atol=1e-13)


# --- symmetric/antisymmetric split ---------------------------------------

_entry = st.complex_numbers(min_magnitude=0, max_magnitude=2,
                            allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(arrays(np.complex128, (4, 4), elements=_entry))
def test_sa_split_reconstructs(H):
    S, A = symmetry.sa_split(H)
    assert_allclose(S + A, H, atol=1e-14)
    assert_allclose(S, S.T, atol=0)
    assert_allclose(A, -A.T, atol=0)


def test_sa_split_validation():
    with pytest.raises(ValueError, match="H has non-finite"):
        symmetry.sa_split(np.array([[0, np.nan], [1, 0]]))
    with pytest.raises(ValueError, match="H must be square"):
        symmetry.sa_split(np.zeros((2, 3)))


def test_pseudo_from_sa_positive():
    rng = np.random.default_rng(3)
    g1, g2 = (rng.normal(size=2) + 1j * rng.normal(size=2))
    H = model.to_matrix(model.dirac4("a", g1, g2))
    res = symmetry.pseudo_from_sa(H)
    assert res.eta is not None and res.eta.kind == TRANSPOSE_MINUS
    assert res.chiral is not None and res.chiral.kind == LINEAR_ANTICOMMUTE
    assert check(H, res.eta) <= 1e-12
    assert check(H, res.chiral) <= 1e-12
    assert res.anticommutator_norm <= 1e-12


def test_pseudo_from_sa_negative():
    S = gamma(0) + gamma(5)
    A = gamma(1) + gamma(3) + gamma((1, 3)) + (1 + 1j) * gamma((0, 5))
    res = symmetry.pseudo_from_sa(S + A)
    assert res.eta is None and res.chiral is None
    assert res.anticommutator_norm == pytest.approx(np.sqrt(32), rel=1e-12)


def test_pseudo_from_sa_symmetric_input():
    res = symmetry.pseudo_from_sa(SX)
    assert res.eta is None and res.anticommutator_norm == 0.0


def test_pseudo_from_sa_singular_antisymmetric_part():
    # A = g1 + i g3 squares to zero, so it cannot be inverted, but the
    # inverse-free relation still holds
    H = gamma(0) + gamma(1) + 1j * gamma(3)
    with pytest.warns(UserWarning, match="singular"):
        res = symmetry.pseudo_from_sa(H)
    assert res.eta is not None and res.eta.allow_singular
    assert check(H, res.eta) <= 1e-12


def test_pseudo_from_sa_survives_huge_matrices():
    # ||A|| overflowed to inf and ||A|| * ||S|| = inf * 0 to NaN, so the
    # split was refused where the unscaled matrix gives eta = A
    res = symmetry.pseudo_from_sa(2.0**530 * SY)
    assert res.eta is not None and res.chiral is None
    assert_array_equal(res.eta.matrix, 2.0**530 * SY)
    assert res.anticommutator_norm == 0.0


def test_pseudo_from_sa_at_extreme_scales():
    # S @ A underflowed to zero at 2**-540, a chiral operator that passed
    # every check, and overflowed at 2**530
    H = np.array([[1, 1], [-1, -1]], dtype=complex)
    for k in (-540, -300, 0, 300, 530):
        res = symmetry.pseudo_from_sa(2.0**k * H)
        assert res.eta is not None and res.chiral is not None
        for op in (res.eta, res.chiral):
            assert np.isfinite(op.matrix).all() and op.matrix.any()
            assert check(2.0**k * H, op) <= symmetry.PASS_TOL
        # f**2 * S @ A, with f**2 = 2**-(2k + 2): one matrix at every scale
        assert_array_equal(res.chiral.matrix, SX / 4)


def test_pseudo_from_sa_chiral_bound_is_scale_free(monkeypatch):
    # the parts anticommute to about 1e-12 relative, within PASS_TOL; a
    # chiral residual of 1e-3 must fail verification at every scale, as
    # it did at scale 1 only when the bound scaled like 1 / ||H||
    H = np.array([[1 + 1e-12, 1], [-1, -1 + 1e-12]], dtype=complex)
    true_check = symmetry.check
    monkeypatch.setattr(symmetry, "check", lambda H, op: (
        true_check(H, op) if op.kind == TRANSPOSE_MINUS else 1e-3))
    for k in (-300, 0, 300):
        with pytest.raises(RuntimeError, match="failed verification"):
            symmetry.pseudo_from_sa(2.0**k * H)


# --- discovery ------------------------------------------------------------

def test_discover_dimension_matches_eigenvalue_pairing():
    # diagonalizable with eigenvalues (2, -2, 0.7): one opposite pair
    # gives a two-dimensional anticommutant
    H = np.diag([2.0, -2.0, 0.7]).astype(complex)
    ops = symmetry.discover(H, "chiral")
    assert len(ops) == 2
    rng = np.random.default_rng(9)
    V = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    Hs = V @ H @ np.linalg.inv(V)
    assert len(symmetry.discover(Hs, "chiral")) == 2
    assert symmetry.discover(np.diag([1.0, 2.0, 3.5]), "chiral") == []


def test_discover_dirac4a_full_dimension():
    H = model.to_matrix(model.dirac4("a", 1.3 + 0.2j, 0.4 - 0.9j))
    vals = np.linalg.eigvals(H)
    pairings = sum(1 for a in vals for b in vals if abs(a + b) < 1e-8)
    ops = symmetry.discover(H, "chiral", basis=clifford.basis16(),
                            labels=clifford.basis16_labels())
    assert len(ops) == pairings == 8
    for op in ops:
        assert check(H, op) <= 1e-9
        coeffs = clifford.expand_in_basis16(op.matrix)
        assert np.abs(coeffs).max() == pytest.approx(1.0, abs=1e-12)
        assert op.label


def test_discover_other_relations_on_wheel():
    m = model.rt_wheel(0.75, 1 + 0.6j, 1.5 + 0.4j)
    H = model.to_matrix(m)
    basis, labels = clifford.basis16(), clifford.basis16_labels()
    for relation in ("nhph", "bosonic", "pseudo_chiral"):
        ops = symmetry.discover(H, relation, basis=basis, labels=labels)
        assert ops, relation
        for op in ops:
            assert check(H, op) <= 1e-9


def test_discover_dagger_kinds_on_hermitian_models():
    # for Hermitian H, H^dagger = H: a pseudo-Hermitian operator commutes
    # with H and an anti-pseudo-Hermitian one anticommutes with it
    basis, labels = clifford.basis16(), clifford.basis16_labels()
    pyramid = model.pyramid("nochiral", 1.0, 0.5, 0.8).matrix
    dirac = model.dirac4("b", 1.0, 0.5).matrix
    commuting = symmetry.discover(pyramid, "pseudo_hermitian", basis=basis,
                                  labels=labels)
    anticommuting = symmetry.discover(dirac, "anti_pseudo_hermitian",
                                      basis=basis, labels=labels)
    chiral = symmetry.discover(dirac, "chiral", basis=basis, labels=labels)
    assert "(1+0i)*1" in [op.label for op in commuting]
    assert len(chiral) == 4
    assert _in_span(chiral, anticommuting) <= 1e-9
    for H, relation, ops in ((pyramid, "pseudo_hermitian", commuting),
                             (dirac, "anti_pseudo_hermitian", anticommuting)):
        assert_allclose(H, H.conj().T, atol=0)
        assert len(ops) == len(symmetry.discover(H, relation)) == 4
        for op in ops:
            assert check(H, op) <= 1e-9
            assert op.label


def _preset_models():
    """Every preset at the CLI defaults and on seeded parameter sets."""
    rng = np.random.default_rng(14)
    sets = [[]]
    for _ in range(12):
        z = rng.normal(size=(4, 2)).round(3)
        sets.append([f"--{name}={a}{b:+}i" for name, (a, b)
                     in zip(("g1", "g2", "g3", "beta"), z)]
                    + [f"--g={rng.uniform(0.5, 2):.3f}",
                       f"--tau={rng.uniform(0, 2):.3f}",
                       f"--delta={rng.uniform(0, 1):.3f}"])
    parser = cli.build_parser()
    for params in sets:
        for name, build in cli.PRESETS.items():
            yield build(parser.parse_args(["check", "--preset", name]
                                          + params))


def test_declared_relations_force_their_spectral_reflection():
    # the paper's claim: an invertible operator in relation with H maps
    # the spectrum onto its image under the relation's reflection
    checked = set()
    for m in _preset_models():
        values = linalg.eig(m.matrix).values
        for hint in m.symmetry_hints:
            op = symmetry.named_operator(m, hint)
            if not np.linalg.cond(op.matrix) <= symmetry.COND_MAX:
                continue
            assert check(m.matrix, op) <= symmetry.PASS_TOL, (m.name, hint)
            reflection = symmetry.RELATIONS[op.kind].reflection
            assert spectra.reflection_defect(values, reflection) <= 1e-8, \
                (m.name, hint)
            checked.add(op.kind)
    assert checked == set(symmetry.KINDS) - {symmetry.DAGGER_PLUS}


def test_discover_validation():
    with pytest.raises(ValueError):
        symmetry.discover(SZ, "spooky")
    with pytest.raises(ValueError):
        symmetry.discover(SZ, "chiral", basis=[np.eye(3)])
    with pytest.raises(ValueError, match="dependent"):
        symmetry.discover(SZ, "chiral", basis=[SZ, 2 * SZ])
    with pytest.raises(ValueError, match="basis is empty"):
        symmetry.discover(SZ, "chiral", basis=[])
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        element = SZ.copy()
        element[0, 1] = bad
        with pytest.raises(ValueError, match="basis elements have non-finite"):
            symmetry.discover(SZ, "chiral", basis=[SX, element])
    for tol in (np.nan, np.inf, 0.0, -1e-9):
        with pytest.raises(ValueError, match="tol"):
            symmetry.discover(SZ, "chiral", tol=tol)
    with pytest.raises(ValueError, match="non-finite"):
        symmetry.discover(np.array([[0, np.nan], [1, 0]]), "chiral")
    with pytest.raises(ValueError, match="square"):
        symmetry.discover(np.zeros((2, 3)), "chiral")
    with pytest.raises(ValueError, match="dense cap"):
        symmetry.discover(np.eye(257), "chiral")
    H4 = model.to_matrix(model.dirac4("a", 1.0, 0.5))
    with pytest.raises(ValueError, match="one label per element"):
        symmetry.discover(H4, "chiral", basis=clifford.basis16(),
                          labels=clifford.basis16_labels()[:3])
    with pytest.raises(ValueError, match="labels need a basis"):
        symmetry.discover(H4, "chiral", labels=clifford.basis16_labels())


def _unit_basis(n):
    return [np.eye(n * n)[k].reshape((n, n), order="F") for k in range(n * n)]


def _in_span(ops, others):
    """Largest relative distance of an operator in ops from others' span."""
    if not ops:
        return 0.0
    A = np.column_stack([o.matrix.ravel() for o in others])
    worst = 0.0
    for op in ops:
        x = op.matrix.ravel()
        coef = np.linalg.lstsq(A, x, rcond=None)[0]
        worst = max(worst, np.linalg.norm(A @ coef - x) / np.linalg.norm(x))
    return worst


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
           st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                    min_size=n, max_size=n),
           st.integers(0, 2**32 - 1))),
       st.sampled_from(symmetry.DISCOVER_RELATIONS))
def test_discover_spectral_and_dense_paths_agree(spec, relation):
    # eigenvalues on the Gaussian-integer grid: every pairing gap is either
    # exactly zero or at least 1, far from both paths' thresholds
    points, seed = spec
    # with a one-point spectrum every pair can match, and the dense
    # residual matrix is then pure rounding, too small for its relative
    # singular-value threshold to measure against
    assume(len(set(points)) > 1 or points[0] == (0, 0))
    lam = np.array([complex(a, b) for a, b in points])
    n = len(lam)
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assume(np.linalg.cond(V) <= 100)
    H = V @ np.diag(lam) @ np.linalg.inv(V)
    spectral = symmetry.discover(H, relation)
    dense = symmetry.discover(H, relation, basis=_unit_basis(n))
    assert len(spectral) == len(dense)
    for op in spectral:
        assert np.linalg.matrix_rank(op.matrix) == 1  # an eigen-dyad
        assert np.abs(op.matrix).max() == pytest.approx(1.0, abs=1e-15)
        assert check(H, op) <= 1e-9
    assert _in_span(spectral, dense) <= 1e-7
    assert _in_span(dense, spectral) <= 1e-7


def test_discover_jordan_block_takes_dense_fallback(monkeypatch):
    calls = []
    original = symmetry.nullspace

    def counting_nullspace(M, tol):
        calls.append(M.shape)
        return original(M, tol)

    monkeypatch.setattr(symmetry, "nullspace", counting_nullspace)
    J = np.array([[0, 1], [0, 0]], dtype=complex)
    # both eigenvalues are 0, so a pair count would claim all 4 matrices;
    # the anticommutant is {[[a, b], [0, -a]]}
    ops = symmetry.discover(J, "chiral")
    assert calls == [(4, 4)]
    assert len(ops) == 2
    for op in ops:
        assert check(J, op) == 0.0
        assert op.matrix[1, 0] == 0
        assert op.matrix[0, 0] == -op.matrix[1, 1]


def test_discover_without_matched_pair_skips_the_dyad_work(monkeypatch):
    def no_verification(*args):
        raise AssertionError("nothing to verify")

    monkeypatch.setattr(symmetry, "_dyad_bounds", no_verification)
    # positive real and imaginary parts: no lam_i + lam_j, lam_i + conj(lam_j)
    # or lam_i - conj(lam_j) vanishes
    lam = np.array([1 + 1j, 2 + 3j, 3 + 0.5j, 0.5 + 2j])
    V = np.random.default_rng(6).normal(size=(4, 4)) + 1j
    H = V @ np.diag(lam) @ np.linalg.inv(V)
    for relation in symmetry.DISCOVER_RELATIONS:
        assert symmetry.discover(H, relation) == []


def test_discover_failed_dyad_falls_back_to_dense_kernel(monkeypatch):
    bounds, residuals = symmetry._dyad_bounds, symmetry._residuals
    nullspace = symmetry.nullspace
    bound_calls, residual_calls, nullspace_shapes = [], [], []

    def failing_bounds(*args):
        b = bounds(*args)
        bound_calls.append(len(b))
        # just above discover's default tol of 1e-9
        return b + 1.5e-9

    def recording_residuals(H, kind, mats):
        residual_calls.append(len(mats))
        return residuals(H, kind, mats)

    def recording_nullspace(M, tol):
        nullspace_shapes.append(M.shape)
        return nullspace(M, tol)

    monkeypatch.setattr(symmetry, "_dyad_bounds", failing_bounds)
    monkeypatch.setattr(symmetry, "_residuals", recording_residuals)
    monkeypatch.setattr(symmetry, "nullspace", recording_nullspace)
    rng = np.random.default_rng(9)
    V = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    H = V @ np.diag([2.0, -2.0, 0.7]) @ np.linalg.inv(V)
    ops = symmetry.discover(H, "chiral")
    # the spectral path bounded its two dyads at once and failed; the
    # dense kernel over the 9 unit matrices found the same dimension and
    # verified its two solutions explicitly
    assert bound_calls == [2]
    assert residual_calls == [2]
    assert nullspace_shapes == [(9, 9)]
    assert len(ops) == 2
    for op in ops:
        assert check(H, op) <= 1e-9


def test_discover_defective_above_dense_limit_refused():
    shift = np.diag(np.ones(32), 1)  # a 33 x 33 Jordan block
    with pytest.raises(ValueError, match="n <= 32"):
        symmetry.discover(shift, "chiral")
    # a diagonalizable matrix of that size stays on the spectral path
    assert len(symmetry.discover(np.diag(np.arange(-16.0, 17.0)), "chiral")) == 33


def test_discover_refuses_an_oversized_solution_basis():
    # H = 0 matches every eigenvalue pair: 65^2 dyads of 65 x 65, more
    # than MAX_DENSE**3 entries, refused before any dyad is formed
    with pytest.raises(ValueError, match="above the limit of 16777216"):
        symmetry.discover(np.zeros((65, 65)), "chiral")


@pytest.mark.parametrize("tau", [1.2, 1.3, 1.4, 1.41, 1.414, 1.4142135,
                                 np.sqrt(2), 1.415, 1.45, 1.5, 1.6])
def test_discover_flake_near_exceptional_point(tau):
    H = model.to_matrix(model.honeycomb_flake(1.0, tau))
    for relation in symmetry.DISCOVER_RELATIONS:
        ops = symmetry.discover(H, relation)
        assert len(ops) == 21, relation
        for op in ops:
            assert check(H, op) <= 1e-9


def test_discover_criterion07_matrix_exact_dimension():
    # criterion 07 used to assert an empty chiral space for this
    # Gaussian-integer matrix; exact rational arithmetic shows the space
    # is 4-dimensional, matching its two +- eigenvalue pairs
    sympy = pytest.importorskip("sympy")
    H = (gamma(0) + gamma(5) + gamma(1) + gamma(3) + gamma((1, 3))
         + (1 + 1j) * gamma((0, 5)))
    assert np.array_equal(H, np.round(H.real) + 1j * np.round(H.imag))
    Hx = sympy.Matrix(4, 4, [sympy.Integer(int(z.real))
                             + sympy.I * sympy.Integer(int(z.imag))
                             for z in H.ravel()])
    X = sympy.Matrix(4, 4, sympy.symbols("x0:16"))
    equations = list(Hx * X + X * Hx)
    A = sympy.Matrix([[sympy.expand(eq).coeff(x) for x in X]
                      for eq in equations])
    assert 16 - A.rank() == 4
    assert len(symmetry.discover(H, "chiral")) == 4
    assert len(symmetry.discover(H, "chiral", basis=clifford.basis16())) == 4


# --- named operators ------------------------------------------------------

def test_named_operator_lattice_and_expression():
    m = model.honeycomb_flake(1.0, 0.4)
    op = symmetry.named_operator(m, "chiral:mirror1*sublattice")
    assert op.kind == LINEAR_ANTICOMMUTE
    assert_array_equal(op.matrix,
                       model.flake_mirror(1)
                       @ model.lattice_operator(m, "sublattice"))
    md = model.dirac4("a", 1.0, 0.5)
    op2 = symmetry.named_operator(md, "pseudo:g1")
    assert op2.kind == TRANSPOSE_MINUS
    assert_array_equal(op2.matrix, gamma(1))


def test_named_operator_errors():
    m = model.honeycomb_flake(1.0, 0.4)
    with pytest.raises(ValueError):
        symmetry.named_operator(m, "chiral")
    with pytest.raises(ValueError):
        symmetry.named_operator(m, "witchcraft:g0")
    with pytest.raises(ValueError, match="13-site"):
        symmetry.named_operator(m, "chiral:g0")


# --- wheel constructions --------------------------------------------------

def test_hidden_nhph_matches_rotation_product():
    beta, g1, g2 = 0.6, 1.0 + 0.8j, 1.4 - 0.3j
    H = model.to_matrix(model.rt_wheel(beta, g1, g2))
    op = symmetry.hidden_nhph(beta, g1, g2)
    assert op.kind == ANTILINEAR_ANTICOMMUTE
    assert check(H, op) == 0.0
    rot2 = 1j * gamma((2, 3))
    pi = symmetry.product(SymOp(rot2, ANTILINEAR_COMMUTE), op)
    expected = g2.real * gamma(1) + 1j * g1.imag * gamma(3)
    assert_allclose(pi.matrix, expected, atol=1e-14)


def test_hidden_nhph_refusals():
    with pytest.raises(ValueError, match="complex beta"):
        symmetry.hidden_nhph(0.5 - 0.1j, 1 + 1j, 1.5)
    with pytest.raises(ValueError, match="degenerate"):
        symmetry.hidden_nhph(0.5, 1.0, 0.8j)


def test_wick_rotate_swaps_relation_pairs():
    m = model.mirror_chain(0.6)
    H = model.to_matrix(m)
    C = model.lattice_operator(m, "sublattice")
    P = model.lattice_operator(m, "parity")
    assert check(H, SymOp(C, DAGGER_MINUS)) == 0.0
    assert check(H, SymOp(P, ANTILINEAR_COMMUTE)) == 0.0
    Ht = symmetry.wick_rotate(H)
    assert_allclose(Ht, -1j * H, atol=0)
    assert check(Ht, SymOp(C, DAGGER_PLUS)) == 0.0
    assert check(Ht, SymOp(P, ANTILINEAR_ANTICOMMUTE)) == 0.0
    # the transpose-type operator survives the rotation unchanged
    eta = SymOp(P @ C, TRANSPOSE_MINUS)
    assert check(H, eta) == 0.0
    assert check(Ht, eta) == 0.0


# --- derived-operator report ----------------------------------------------

def test_pseudo_properties_basic():
    m = model.mirror_chain(0.5)
    H = model.to_matrix(m)
    eta = (model.lattice_operator(m, "parity")
           @ model.lattice_operator(m, "sublattice"))
    noncommuting = np.diag([1.0, 2, 3, 4, 5]).astype(complex)
    rep = symmetry.pseudo_properties(H, eta, commuting=(H, np.eye(5),
                                                        noncommuting))
    assert rep.base == 0.0
    assert rep.transpose == 0.0
    assert rep.products[0][1] == 0.0
    assert rep.products[1][1] == 0.0
    assert rep.products[2][1] is None and rep.products[2][0] > 1e-3
    assert rep.hermitian_match is None


def test_pseudo_properties_hermitian_coincidence():
    # for a Hermitian matrix the transpose relation and the antilinear
    # anticommutation relation are the same matrix equation
    H = model.ssh_bloch("imag_onsite", 1.0, 0.7, 0.0, 0.9)
    assert_allclose(H, H.conj().T, atol=1e-15)
    rep = symmetry.pseudo_properties(H, SY)
    assert rep.hermitian_match is not None
    assert rep.hermitian_match <= 1e-15
    assert rep.base <= 1e-15


def test_pseudo_properties_huge_non_hermitian_matrix():
    # ||H - H^dagger|| and ||H|| both overflowed to inf, and inf <= inf
    # reported this non-Hermitian H as Hermitian
    H = np.array([[1.0, 1.0], [-1.0, -1.0]])
    eta = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for scale in (1.0, 2.0**530):
        rep = symmetry.pseudo_properties(scale * H, eta, commuting=(H,))
        assert rep.hermitian_match is None
        assert rep.products == ((0.0, 0.0),)


def test_hidden_nhph_survives_huge_couplings():
    # the inner products of the rotation-product check overflowed
    op = symmetry.hidden_nhph(0.75, 1.0 + 0.6j, 1.5 + 0.4j)
    big = symmetry.hidden_nhph(0.75, 2.0**530 * (1.0 + 0.6j),
                               2.0**530 * (1.5 + 0.4j))
    assert_array_equal(big.matrix, 2.0**530 * op.matrix)


def test_pseudo_properties_rejects_bad_eta():
    with pytest.raises(ValueError, match="relation"):
        symmetry.pseudo_properties(np.eye(2) + SX, SY)


@pytest.mark.parametrize("w, message", [
    # a NaN read as "does not commute", with a RuntimeWarning
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), r"commuting\[1\] has non-finite"),
    # numpy's matmul message named no argument
    (np.eye(3), r"commuting\[1\] has shape \(3, 3\), H has \(2, 2\)"),
    # the zero product was refused as an operator, not as an argument
    (np.zeros((2, 2)), r"commuting\[1\] is zero"),
], ids=["non-finite", "shape", "zero"])
def test_pseudo_properties_refuses_bad_commuting(w, message):
    H = np.array([[1.0, 1.0], [-1.0, -1.0]])
    eta = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match=message):
        symmetry.pseudo_properties(H, eta, commuting=(H, w))


# --- serialization --------------------------------------------------------

def test_save_load_op_roundtrip(tmp_path):
    ops = [
        SymOp(gamma((0, 5)), TRANSPOSE_MINUS, label="x"),
        SymOp(np.diag([1.0, 0.0]), TRANSPOSE_MINUS, allow_singular=True),
        SymOp(SY, ANTILINEAR_ANTICOMMUTE),
    ]
    for k, op in enumerate(ops):
        path = tmp_path / f"op{k}.op"
        symmetry.save_op(op, path)
        back = symmetry.load_op(path)
        assert back.kind == op.kind
        assert back.allow_singular == op.allow_singular
        assert_array_equal(back.matrix, op.matrix)


def test_load_op_diagnostics(tmp_path):
    path = tmp_path / "bad.op"
    path.write_text("kind warp\ndim 2\n")
    with pytest.raises(ValueError, match="kind"):
        symmetry.load_op(path)
    path.write_text("kind linear_anticommute\ndim 2\nentry 0 5 1 0\n")
    with pytest.raises(ValueError, match="out of range"):
        symmetry.load_op(path)
    path.write_text("kind linear_anticommute\n")
    with pytest.raises(ValueError, match="dim"):
        symmetry.load_op(path)
