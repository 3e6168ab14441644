"""Spectral discovery's dyad verification against the explicit form it
replaced.

``symmetry._eigen_dyads`` used to multiply out every eigen-dyad and take
its :func:`symmetry.check` residual through ``symmetry._residuals``.  It
now compares ``symmetry._dyad_bounds``, an upper bound built from each
eigenvector's backward error, against ``tol``.  The explicit form is kept
here as the reference: on presets, synthetic matrices and the flake
through its exceptional point, both must take the same path and return
the same operator bytes.  Alongside, the bound itself: for arbitrary
vectors and eigenvalues (the identity behind it is algebraic) it is never
below the explicit residual.
"""

import numpy as np
import pytest

from nhsym import model, symmetry
from nhsym.symmetry import SymOp, check


def ref_eigen_dyads(H, kind, tol):
    """The explicit verification: every dyad's stacked residual."""
    rel = symmetry.RELATIONS[kind]
    lam, V = np.linalg.eig(H)
    sigma = np.linalg.svd(V, compute_uv=False)
    if sigma.size and not sigma[-1] * symmetry.SPECTRAL_COND_MAX >= sigma[0]:
        return None
    mu = symmetry.REFLECTIONS[rel.reflection](lam)
    i, j = np.nonzero(np.abs(lam[:, None] - mu[None, :])
                      <= tol * np.linalg.norm(H))
    if not i.size:
        return []
    U = V.T if rel.transpose else np.linalg.inv(V)
    if rel.conj:
        U = U.conj()
    X = (symmetry._pivot_normalized(V.T[i])[:, :, None]
         * symmetry._pivot_normalized(U[j])[:, None, :])
    if not np.all(symmetry._residuals(H, kind, X) <= tol):
        return None
    return list(X)


def _presets(count=3, seed=21):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        g = [complex(*rng.uniform(-1.5, 1.5, size=2)) for _ in range(3)]
        yield model.dirac4("a", g[0], g[1])
        yield model.dirac4("b", g[0], g[1])
        yield model.rt_wheel(float(rng.uniform(0.3, 1.2)), g[0], g[1])
        yield model.pyramid("nochiral", *g)
        yield model.pyramid("chiral", *g)
        yield model.honeycomb_flake(float(rng.uniform(0.8, 1.2)),
                                    float(rng.uniform(0.0, 1.2)))
        yield model.mirror_chain(float(rng.uniform(0.0, 0.9)))


def _synthetic(seed=22):
    rng = np.random.default_rng(seed)
    for n in (16, 24, 32):
        yield rng.normal(size=(n, n)).astype(complex)
        H = np.zeros((n, n), dtype=complex)
        h = n // 2
        H[:h, h:] = rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h))
        H[h:, :h] = rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h))
        yield H


def _flake_sweep():
    for tau in np.linspace(0.0, 2.0, 9).tolist() + [np.sqrt(2), 1.4142]:
        yield model.to_matrix(model.honeycomb_flake(1.0, tau))


def _inputs():
    yield np.zeros((3, 3), dtype=complex)  # every pair matches, residual 0
    yield from (model.to_matrix(m) for m in _presets())
    yield from _synthetic()
    yield from _flake_sweep()


def test_bound_takes_the_explicit_path_with_the_same_bytes():
    paths = set()
    for H in _inputs():
        H = symmetry._unit_scaled(H)
        for kind in symmetry.KINDS:
            for tol in (1e-9, 1e-3):
                want = ref_eigen_dyads(H, kind, tol)
                got = symmetry._eigen_dyads(H, kind, tol)
                if want is None:
                    assert got is None
                    paths.add("dense")
                    continue
                paths.add("spectral" if want else "empty")
                assert [op.matrix.tobytes() for op in got] == \
                    [x.tobytes() for x in want]
                assert all(op.kind == kind for op in got)
    # the inputs reach every path: dyads, no pair, and the dense kernel
    assert paths == {"spectral", "empty", "dense"}


@pytest.mark.parametrize("kind", symmetry.KINDS)
def test_bound_is_never_below_the_explicit_residual(kind):
    rel = symmetry.RELATIONS[kind]
    rng = np.random.default_rng(23)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    for n in range(2, 33):
        H = symmetry._unit_scaled(cplx(n, n))
        # eigenvectors off by a visible backward error, so every term of
        # the bound counts
        lam, V = np.linalg.eig(H)
        V = V + 1e-3 * cplx(n, n)
        U = np.linalg.inv(V) + 1e-3 * cplx(n, n)
        lam = lam + 1e-3 * cplx(n)
        i, j = rng.integers(n, size=(2, 12))
        bounds = symmetry._dyad_bounds(H, rel, lam, V, U, i, j)
        for a, b, bound in zip(V.T[i], U[j], bounds):
            r = check(H, SymOp(np.outer(a, b), kind, allow_singular=True))
            assert r <= bound + 1e-14
