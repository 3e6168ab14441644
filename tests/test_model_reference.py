"""The matrix-backed Model against the coupling-list form it replaced.

Models used to store the Hamiltonian as on-site values plus ``(i, j, t)``
couplings: the builders that compute a matrix turned it into couplings
(``_coupling_list``), the flake and the wheel listed couplings directly,
and ``to_matrix`` assembled the matrix again (``_coupling_matrix``).  Those
loops and the old builders' formulas are kept here as the reference; every
builder must give the same matrix values on the six protocol grids and on
seeded parameter sets.  The save/load round trip of random sparse matrices
is checked as well.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhsym import model, spectra
from nhsym.clifford import gamma


def _coupling_list(H):
    """On-site values and ``(i, j, H[j, i])`` couplings of a matrix."""
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    couplings = [(i, j, H[j, i]) for i in range(n) for j in range(n)
                 if i != j and H[j, i] != 0]
    return tuple(np.diag(H)), tuple(couplings)


def _coupling_matrix(onsite, couplings):
    """Dense matrix: onsite on the diagonal, couplings added."""
    n = len(onsite)
    H = np.zeros((n, n), dtype=complex)
    for idx, v in enumerate(onsite):
        H[idx, idx] = v
    for i, j, amp in couplings:
        H[j, i] += complex(amp)
    return H


def _via_couplings(H):
    return _coupling_matrix(*_coupling_list(H))


def ref_flake(g, tau):
    onsite = [0j] * model.FLAKE_N
    for s in model.FLAKE_GAIN:
        onsite[s] = 1j * float(tau)
    for s in model.FLAKE_LOSS:
        onsite[s] = -1j * float(tau)
    couplings = []
    for i, j in model.FLAKE_EDGES:
        couplings += [(i, j, float(g)), (j, i, float(g))]
    return _coupling_matrix(onsite, couplings)


def ref_rt_wheel(beta, g1, g2):
    beta, g1, g2 = complex(beta), complex(g1), complex(g2)
    couplings = (
        (0, 2, g1), (0, 3, np.conj(g2)),
        (1, 2, g2), (1, 3, np.conj(g1)),
        (2, 0, g1), (2, 1, g2),
        (3, 0, np.conj(g2)), (3, 1, np.conj(g1)),
    )
    H = np.diag([beta, beta, -beta, -beta]) + _coupling_matrix((0,) * 4,
                                                               couplings)
    return _via_couplings(H)


def ref_dirac4(variant, g1, g2):
    g1, g2 = complex(g1), complex(g2)
    if variant == "a":
        return _via_couplings(g1 * gamma(5) - g2 * gamma(1))
    return _via_couplings(g1 * gamma(5) + g2 * gamma((0, 1)))


def ref_pyramid(variant, g1, g2, g3, detunings=()):
    g1, g2, g3 = complex(g1), complex(g2), complex(g3)
    third = (0, 1, 5) if variant == "nochiral" else (1, 5)
    H = g1 * gamma(5) + g2 * gamma((0, 1)) + g3 * gamma(third)
    for label, coeff in detunings:  # canonical index tuples only
        H = H + complex(coeff) * gamma(tuple(label))
    return _via_couplings(H)


def ref_bipartite_pseudo(T, D_A, D_B):
    T = np.asarray(T, dtype=complex)
    na, nb = T.shape
    H = np.zeros((na + nb, na + nb), dtype=complex)
    H[:na, :na] = 1j * np.diag(np.asarray(D_A, dtype=float))
    H[na:, na:] = 1j * np.diag(np.asarray(D_B, dtype=float))
    H[:na, na:] = T
    H[na:, :na] = T.conj().T
    return _via_couplings(H)


def ref_mirror_chain(delta):
    delta, g1 = float(delta), model.CHAIN_COUPLING
    T = np.array([[g1, 0], [g1, np.conj(g1)], [0, np.conj(g1)]])
    return ref_bipartite_pseudo(T, delta * np.array([1.0, 0.0, -1.0]),
                                delta * np.array([1.0, -1.0]))


_REFERENCES = {"honeycomb_flake": ref_flake, "rt_wheel": ref_rt_wheel,
               "dirac4": ref_dirac4, "pyramid": ref_pyramid,
               "mirror_chain": ref_mirror_chain}


@pytest.mark.parametrize("tag", spectra.PROTOCOLS)
def test_protocol_grids_match_the_coupling_list_form(monkeypatch, tag):
    proto = spectra.PROTOCOLS[tag]
    grid = np.linspace(proto.lo, proto.hi, 400)
    # each protocol looks its builder up in nhsym.model when it runs, so
    # patching the builders makes model_at return the reference matrix
    with monkeypatch.context() as mp:
        for name, ref in _REFERENCES.items():
            mp.setattr(model, name, ref)
        expected = [proto.model_at(p) for p in grid]
    for p, H in zip(grid, expected):
        assert np.array_equal(proto.matrix_at(p), H), p


def _complex(rng):
    return complex(*rng.normal(size=2))


def test_seeded_builders_match_the_coupling_list_form():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        c = [_complex(rng) for _ in range(3)]
        cases = [
            (model.dirac4("a", c[0], c[1]), ref_dirac4("a", c[0], c[1])),
            (model.dirac4("b", c[0], c[1]), ref_dirac4("b", c[0], c[1])),
            (model.rt_wheel(c[2].real, c[0], c[1]),
             ref_rt_wheel(c[2].real, c[0], c[1])),
            (model.rt_wheel(c[2], c[0], c[1]), ref_rt_wheel(c[2], c[0], c[1])),
        ]
        detunings = tuple((label, _complex(rng))
                          for label in ((0,), (1, 2), (3, 5))
                          if rng.random() < 0.7)
        for variant in ("nochiral", "chiral"):
            cases.append((model.pyramid(variant, *c, detunings=detunings),
                          ref_pyramid(variant, *c, detunings)))
        g, tau = 0.1 + abs(rng.normal()), abs(rng.normal())
        cases.append((model.honeycomb_flake(g, tau), ref_flake(g, tau)))
        # the chain's coupling is fixed; bipartite_pseudo below takes
        # seeded couplings
        delta = rng.normal()
        cases.append((model.mirror_chain(delta), ref_mirror_chain(delta)))
        na, nb = rng.integers(1, 6, size=2)
        T = rng.normal(size=(na, nb)) + 1j * rng.normal(size=(na, nb))
        T[rng.random(size=T.shape) < 0.3] = 0
        D_A, D_B = rng.normal(size=na), rng.normal(size=nb)
        cases.append((model.bipartite_pseudo(T, D_A, D_B),
                      ref_bipartite_pseudo(T, D_A, D_B)))
        for m, H in cases:
            assert np.array_equal(model.to_matrix(m), H), m.name


_values = st.complex_numbers(max_magnitude=1e300, allow_nan=False,
                             allow_infinity=False)


@st.composite
def _sparse_models(draw):
    n = draw(st.integers(1, 6))
    non_bipartite = draw(st.booleans())
    if non_bipartite:
        labels = ("none",) * n
    else:
        labels = tuple(draw(st.lists(st.sampled_from("AB"), min_size=n,
                                     max_size=n)))
    H = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for i in range(n):
            allowed = non_bipartite or i == j or labels[i] != labels[j]
            if allowed and draw(st.booleans()):
                H[j, i] = draw(_values)
    return model.Model("random", H, labels, non_bipartite=non_bipartite)


@settings(max_examples=60, deadline=None)
@given(_sparse_models())
def test_save_load_round_trip_of_sparse_matrices(tmp_path_factory, m):
    path = tmp_path_factory.mktemp("m") / "random.model"
    model.save_model(m, path)
    back = model.load_model(path)
    assert np.array_equal(back.matrix, m.matrix)
    assert back.non_bipartite == m.non_bipartite
    lines = path.read_text().splitlines()
    sites = [tuple(map(int, ln.split()[1:2])) for ln in lines
             if ln.startswith("site ")]
    hops = [tuple(map(int, ln.split()[1:3])) for ln in lines
            if ln.startswith("hop ")]
    assert sites == [(i,) for i in range(m.n_sites)]
    i, j = np.nonzero(m.matrix.T)
    assert hops == [(a, b) for a, b in zip(i.tolist(), j.tolist()) if a != b]
