import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from nhsym import clifford
from nhsym.clifford import GammaExpr, gamma


def test_squares():
    for mu in clifford.INDICES:
        g = gamma(mu)
        assert_array_equal(g @ g, clifford.SQUARE_SIGN[mu] * np.eye(4))


def test_distinct_generators_anticommute_exactly():
    for a in clifford.INDICES:
        for b in clifford.INDICES:
            if a < b:
                assert_array_equal(gamma(a) @ gamma(b) + gamma(b) @ gamma(a),
                                   np.zeros((4, 4)))


def test_transpose_signs():
    for mu in clifford.INDICES:
        assert_array_equal(gamma(mu).T, clifford.TRANSPOSE_SIGN[mu] * gamma(mu))


def test_known_diagonal_products():
    assert_array_equal(gamma(0), np.diag([1, 1, -1, -1]).astype(complex))
    assert_array_equal(gamma((1, 2)), np.diag([-1j, 1j, -1j, 1j]))
    assert_array_equal(gamma((3, 5)), np.diag([1, -1, -1, 1]).astype(complex))


def test_triple_product_collapses_to_pair():
    # matrix identity only; the three-index product itself is kept
    assert_array_equal(gamma((1, 2, 3)), -1j * gamma((0, 5)))
    assert GammaExpr.from_terms([((1, 2, 3), 1)]).terms == (((1, 2, 3), 1),)


def test_label_canonicalization():
    for factors, indices, sign in [
        ((5, 0), (0, 5), -1),
        ((1, 1), (), -1),
        ((2, 1), (1, 2), -1),
        ((3, 5, 0), (0, 3, 5), 1),
    ]:
        e = GammaExpr.from_terms([(factors, 0.5 - 2j)])
        assert e.terms == ((indices, sign * (0.5 - 2j)),), factors
        assert_array_equal(e.to_matrix(), (0.5 - 2j) * gamma(factors))


def test_label_multiplication():
    # g0 * (g0*g5): the product of two labels is their concatenated indices
    prod = GammaExpr.from_terms([((0,) + (0, 5), 1)])
    assert prod.terms == (((5,), 1),)
    assert_array_equal(prod.to_matrix(), gamma(5))
    assert_array_equal(gamma((0,)) @ gamma((0, 5)), gamma(5))


def test_from_terms_sums_reordered_products():
    e = GammaExpr.from_terms([((0, 5), 2.0), ((5, 0), 0.5), ([2], 1j)])
    assert e.terms == (((2,), 1j), ((0, 5), 1.5))
    assert GammaExpr.from_terms([((1, 2), 1), ((2, 1), 1)]).terms == ()
    with pytest.raises(ValueError, match="not a generator index: 4"):
        GammaExpr.from_terms([((0, 4), 1)])


def test_gamma_argument_forms():
    assert_array_equal(gamma("g0*g5"), gamma((0, 5)))
    assert_array_equal(gamma(5), gamma((5,)))
    with pytest.raises(ValueError):
        gamma(4)
    with pytest.raises(ValueError):
        gamma("g0**g5")


def test_parse_expr_and_format_roundtrip():
    e = clifford.parse_expr("(1.5)*g1 + (0+1i)*g3 - g0")
    text = clifford.format_expr(e)
    assert text == "(-1+0i)*g0 + (1.5+0i)*g1 + (0+1i)*g3"
    again = clifford.parse_expr(text)
    assert_allclose(again.to_matrix(), e.to_matrix(), atol=0)


def test_parse_expr_errors_report_position():
    with pytest.raises(ValueError, match="position"):
        clifford.parse_expr("g0 + + g1")
    with pytest.raises(ValueError):
        clifford.parse_expr("g0 g1")
    with pytest.raises(ValueError):
        clifford.parse_expr("")
    # "inf" is not read as "jnf"
    with pytest.raises(ValueError, match="position 0: .*finite"):
        clifford.parse_expr("(inf+0i)*g1")


def test_expr_arithmetic():
    # sums and differences are written as expression text
    combo = clifford.parse_expr("(2)*g1 - g5")
    assert_allclose(combo.to_matrix(), 2 * gamma(1) - gamma(5), atol=0)
    cancel = clifford.parse_expr("g1 - g1")
    assert cancel.terms == ()
    assert clifford.format_expr(cancel) == "(0+0i)"


def test_expr_to_matrix_accepts_strings():
    assert_allclose(clifford.expr_to_matrix("g0*g1 - (0.5)*g5"),
                    gamma((0, 1)) - 0.5 * gamma(5), atol=0)


def test_basis16_structure():
    labels = clifford.basis16_labels()
    assert len(labels) == 16
    assert labels[0] == ()
    singles = [l for l in labels if len(l) == 1]
    assert singles == [(0,), (1,), (2,), (3,), (5,)]
    pairs = [l for l in labels if len(l) == 2]
    assert pairs == [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2),
                     (1, 3), (1, 5), (2, 3), (2, 5), (3, 5)]


def test_basis16_returns_fresh_copies():
    first, labels = clifford.basis16(), clifford.basis16_labels()
    for M in first:
        M[...] = 7
    first.append(np.eye(4))
    labels.reverse()
    labels.clear()
    again = clifford.basis16()
    assert len(again) == 16
    assert clifford.basis16_labels()[:2] == [(), (0,)]
    for M, label in zip(again, clifford.basis16_labels()):
        assert_array_equal(M, gamma(label))


def test_expand_in_basis16_roundtrip():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    coeffs = clifford.expand_in_basis16(M)
    rebuilt = sum(c * b for c, b in zip(coeffs, clifford.basis16()))
    assert_allclose(rebuilt, M, atol=1e-12)


def test_verifiers_find_no_violations():
    assert clifford.verify_clifford() == []
    assert clifford.verify_product_identities(draws=100, seed=0) == []


_coeff = st.complex_numbers(min_magnitude=0, max_magnitude=2,
                            allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(clifford.INDICES),
       st.tuples(_coeff, _coeff, _coeff, _coeff))
def test_partner_sum_product_anticommutes(j, coeffs):
    # gamma_j times any combination of the other four generators
    # anticommutes with that combination, for arbitrary complex weights
    others = [mu for mu in clifford.INDICES if mu != j]
    tilde = sum(c * gamma(mu) for c, mu in zip(coeffs, others))
    lhs = gamma(j) @ tilde
    anti = lhs @ tilde + tilde @ lhs
    assert np.abs(anti).max() <= 1e-12 * max(np.abs(tilde).max() ** 2, 1.0)
