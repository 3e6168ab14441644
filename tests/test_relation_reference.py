"""The relation table against its earlier form.

Each kind used to be stored as a partner B(H) (H, conjugated if ``conj``,
transposed if ``transpose``) and a sign, with the residual
``H M + sign * M B(H)``.  ``symmetry.RELATIONS`` now stores a spectral
reflection R instead, with the residual ``H M - M R(H)``.  The two agree
entry for entry; the only bit pattern that can differ is the sign of an
exact zero, because ``M @ (-H)`` sums the signed zero products of
``M @ H`` with flipped signs.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from nhsym import model, symmetry

# kind -> (conj, transpose, sign), the table the residual was built from
SIGN_TABLE = {
    symmetry.LINEAR_ANTICOMMUTE: (False, False, +1),
    symmetry.ANTILINEAR_ANTICOMMUTE: (True, False, +1),
    symmetry.ANTILINEAR_COMMUTE: (True, False, -1),
    symmetry.TRANSPOSE_MINUS: (False, True, +1),
    symmetry.DAGGER_PLUS: (True, True, -1),
    symmetry.DAGGER_MINUS: (True, True, +1),
}


def sign_residual(kind, H, M):
    conj, transpose, sign = SIGN_TABLE[kind]
    B = H.conj() if conj else H
    HM, MB = H @ M, M @ (B.T if transpose else B)
    return HM + MB if sign > 0 else HM - MB


def _matrices():
    rng = np.random.default_rng(31)
    for n in range(1, 8):
        yield rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        sparse = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        sparse[rng.random((n, n)) < 0.5] = 0
        yield sparse
    for m in (model.honeycomb_flake(1.0, 0.6), model.mirror_chain(0.3),
              model.rt_wheel(0.75, 1 + 0.6j, 1.5 + 0.4j)):
        yield m.matrix


@pytest.mark.parametrize("kind", symmetry.KINDS)
def test_residual_matches_the_sign_formula(kind):
    rng = np.random.default_rng(32)
    rel = symmetry.RELATIONS[kind]
    assert (rel.conj, rel.transpose) == SIGN_TABLE[kind][:2]
    for H in _matrices():
        n = len(H)
        stacks = (rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n)),
                  # the dense kernel's default basis
                  np.eye(n * n).reshape(n * n, n, n).transpose(0, 2, 1))
        for M in stacks:
            for HH in (H, symmetry._unit_scaled(H)):
                got, want = rel.residual(HH, M), sign_residual(kind, HH, M)
                assert_array_equal(got, want)
                # adding +0.0 turns -0.0 into +0.0 and keeps every other
                # bit pattern
                assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


def test_reflection_pairing_matches_the_sign_formula():
    # discovery's pairing gap |lam_i - R(lam)_j| against the earlier
    # |lam_i + sign * mu_j|, mu = conj(lam) for the conjugating kinds
    rng = np.random.default_rng(33)
    lam = rng.normal(size=40) + 1j * rng.normal(size=40)
    lam[::7] = 0
    lam[::5] = lam[::5].real
    for kind, (conj, _, sign) in SIGN_TABLE.items():
        image = symmetry.REFLECTIONS[symmetry.RELATIONS[kind].reflection](lam)
        mu = lam.conj() if conj else lam
        assert (np.abs(lam[:, None] - image[None, :]).tobytes()
                == np.abs(lam[:, None] + sign * mu[None, :]).tobytes())
