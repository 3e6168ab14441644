import dataclasses
import os
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from nhsym import clifford, model
from nhsym.clifford import gamma


# --- flake ---------------------------------------------------------------

def test_flake_hermitian_limit_spectrum():
    H = model.to_matrix(model.honeycomb_flake(1.0, 0.0))
    assert_allclose(H, H.conj().T, atol=0)
    vals = np.sort(np.linalg.eigvalsh(H))
    r3, r6 = np.sqrt(3.0), np.sqrt(6.0)
    expected = [-r6, -r3, -r3, -1, -1, -1, 0, 1, 1, 1, r3, r3, r6]
    assert_allclose(vals, expected, atol=1e-12)


def _flake_zero_vector(g, tau):
    psi = np.zeros(13, dtype=complex)
    psi[1:7] = [1, -1, 1, -1, 1, -1]
    psi[10:13] = -1j * tau / g
    return psi


@pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, np.sqrt(2.0), 2.0])
def test_flake_zero_mode_closed_form(tau):
    g = 1.0
    H = model.to_matrix(model.honeycomb_flake(g, tau))
    psi = _flake_zero_vector(g, tau)
    assert np.linalg.norm(H @ psi) <= 1e-14 * np.linalg.norm(H) * np.linalg.norm(psi)


def test_flake_gain_loss_placement():
    m = model.honeycomb_flake(1.0, 0.7)
    onsite = np.diag(m.matrix)
    assert_allclose(onsite[[1, 3, 5]], 0.7j)
    assert_allclose(onsite[[2, 4, 6]], -0.7j)
    assert_allclose(onsite[[0, 7, 8, 9, 10, 11, 12]], 0.0)
    assert m.sublattice[:7] == ("A",) * 7
    assert m.sublattice[7:] == ("B",) * 6


def test_flake_mirrors_are_involutive_permutations():
    for j in (1, 2, 3):
        M = model.flake_mirror(j)
        assert_array_equal(M @ M, np.eye(13))
        assert_array_equal(M.sum(axis=0), np.ones(13))
        assert_array_equal(M.sum(axis=1), np.ones(13))


def test_flake_mirrors_preserve_adjacency():
    H0 = model.to_matrix(model.honeycomb_flake(1.0, 0.0))
    for j in (1, 2, 3):
        M = model.flake_mirror(j)
        assert_array_equal(M @ H0 @ M, H0)


def test_flake_validation():
    with pytest.raises(ValueError):
        model.honeycomb_flake(0.0, 0.5)
    with pytest.raises(ValueError):
        model.honeycomb_flake(1.0, -0.1)


# --- four-level models ---------------------------------------------------

def test_rt_wheel_matrix_layout():
    beta, g1, g2 = 0.3 + 0j, 1.0 + 0.6j, 1.5 + 0.4j
    H = model.to_matrix(model.rt_wheel(beta, g1, g2))
    expected = np.array([
        [beta, 0, g1, np.conj(g2)],
        [0, beta, g2, np.conj(g1)],
        [g1, g2, -beta, 0],
        [np.conj(g2), np.conj(g1), 0, -beta],
    ])
    assert_allclose(H, expected, atol=0)
    assert_allclose(H, H.T, atol=0)


def test_rt_wheel_gamma_decomposition():
    beta, g1, g2 = 0.75, 1.0 + 0.6j, 1.5 + 0.4j
    H = model.to_matrix(model.rt_wheel(beta, g1, g2))
    rebuilt = (beta * gamma(0) + g1.real * gamma(5)
               + gamma(0) @ (g2.real * gamma(1) + 1j * g1.imag * gamma(3))
               + g2.imag * gamma(2))
    assert_allclose(H, rebuilt, atol=1e-15)


def test_dirac4_matrices():
    Ha = model.to_matrix(model.dirac4("a", 1.2, 0.7))
    assert_allclose(Ha, 1.2 * gamma(5) - 0.7 * gamma(1), atol=0)
    Hb = model.to_matrix(model.dirac4("b", 1.2, 0.7))
    assert_allclose(Hb, 1.2 * gamma(5) + 0.7 * gamma((0, 1)), atol=0)
    with pytest.raises(ValueError):
        model.dirac4("c", 1.0, 1.0)


def test_dirac4_hints_present():
    hints = model.dirac4("a", 1.0, 0.5).symmetry_hints
    assert "chiral:g0" in hints
    assert "pseudo:g1" in hints
    hints_b = model.dirac4("b", 1.0, 0.5).symmetry_hints
    assert "chiral:g0*g5" in hints_b


def test_pyramid_variants():
    Hn = model.to_matrix(model.pyramid("nochiral", 1.0, 1.0, 0.8))
    assert_allclose(Hn, gamma(5) + gamma((0, 1)) + 0.8 * gamma((0, 1, 5)),
                    atol=0)
    assert model.pyramid("nochiral", 1.0, 1.0, 0.8).symmetry_hints == ()
    Hc = model.to_matrix(model.pyramid("chiral", 1.0, 1.0, 0.8))
    assert_allclose(Hc, gamma(5) + gamma((0, 1)) + 0.8 * gamma((1, 5)),
                    atol=0)


def test_pyramid_detuning_label_restriction():
    model.pyramid("chiral", 1, 1, 0.8, detunings=(((0,), 0.2),))
    model.pyramid("chiral", 1, 1, 0.8, detunings=(((1, 2), 0.2),))
    # a label is an index tuple; text goes through clifford.parse_expr
    with pytest.raises(ValueError, match="not a generator index"):
        model.pyramid("chiral", 1, 1, 0.8, detunings=(("g1*g2", 0.2),))
    with pytest.raises(ValueError):
        model.pyramid("chiral", 1, 1, 0.8, detunings=(((1, 3), 0.2),))
    with pytest.raises(ValueError):
        model.pyramid("chiral", 1, 1, 0.8, detunings=(((5,), 0.2),))


def test_pyramid_refuses_detunings_that_overflow():
    # finite detunings along different diagonal products add on one
    # diagonal entry; the sum overflowed with a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=(
                r"^the detunings \(1e\+308\+0i\)\*g0 \+ "
                r"\(1e\+308\+0i\)\*g3\*g5 overflow the matrix$")):
            model.pyramid("chiral", 1, 1, 0.8,
                          detunings=(((0,), 1e308), ((3, 5), 1e308)))


def test_pyramid_hint_survival():
    base = model.pyramid("chiral", 1, 1, 0.8)
    assert set(base.symmetry_hints) == {"chiral:g1", "chiral:g0*g5"}
    d12 = model.pyramid("chiral", 1, 1, 0.8, detunings=(((1, 2), 0.3),))
    assert set(d12.symmetry_hints) == {"chiral:g1"}
    d35 = model.pyramid("chiral", 1, 1, 0.8, detunings=(((3, 5), 0.3),))
    assert "chiral:g0*g5" in d35.symmetry_hints
    evolving = [h for h in d35.symmetry_hints if h != "chiral:g0*g5"]
    assert len(evolving) == 1
    assert evolving[0].startswith("chiral:(1+0i)*g1 +")
    all3 = model.pyramid("chiral", 1, 1, 0.8,
                         detunings=(((0,), 0.1), ((1, 2), 0.2), ((3, 5), 0.3)))
    assert all3.symmetry_hints == ()


def test_pyramid_evolving_chiral():
    e = model.pyramid_evolving_chiral(2.0, 0.5 + 0.5j)
    M = clifford.expr_to_matrix(e)
    assert_allclose(M, gamma(1) - (0.25 + 0.25j) * gamma((1, 3)), atol=0)
    with pytest.raises(ValueError):
        model.pyramid_evolving_chiral(0.0, 0.5)


# --- bipartite chain ------------------------------------------------------

def test_mirror_chain_block_structure():
    delta = 0.4
    g1 = model.CHAIN_COUPLING
    H = model.to_matrix(model.mirror_chain(delta))
    T = np.array([[g1, 0], [g1, np.conj(g1)], [0, np.conj(g1)]])
    expected = np.zeros((5, 5), dtype=complex)
    expected[:3, :3] = 1j * delta * np.diag([1.0, 0.0, -1.0])
    expected[3:, 3:] = 1j * delta * np.diag([1.0, -1.0])
    expected[:3, 3:] = T
    expected[3:, :3] = T.conj().T
    assert_allclose(H, expected, atol=0)
    m = model.mirror_chain(delta)
    assert m.sublattice == ("A", "A", "A", "B", "B")


def test_mirror_chain_antipseudo_is_exact():
    for delta in (0.0, 0.3, 1.0):
        m = model.mirror_chain(delta)
        H = model.to_matrix(m)
        C = model.lattice_operator(m, "sublattice")
        assert_allclose(C @ H.conj().T + H @ C, 0, atol=0)


# --- Bloch matrices -------------------------------------------------------

def test_ssh_bloch_forms():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    t1, t2, tau, k = 1.0, 0.7, 0.3, 0.9
    hx, hy = t1 + t2 * np.cos(k), t2 * np.sin(k)
    assert_allclose(model.ssh_bloch("asym_coupling", t1, t2, tau, k),
                    hx * sx + (1j * tau + hy) * sy, atol=0)
    assert_allclose(model.ssh_bloch("imag_onsite", t1, t2, tau, k),
                    1j * tau * sz + hx * sx + hy * sy, atol=0)
    with pytest.raises(ValueError):
        model.ssh_bloch("nope", t1, t2, tau, k)


# --- validation and operators --------------------------------------------

# a numpy complex used to lose its imaginary part with only a warning, and
# a Python complex raised a bare TypeError from float()
_REAL_PARAMETERS = {
    "flake g": (lambda x: model.honeycomb_flake(x, 0.5), "g"),
    "flake tau": (lambda x: model.honeycomb_flake(1.0, x), "tau"),
    "chain delta": (model.mirror_chain, "delta"),
    "bloch t1": (lambda x: model.ssh_bloch("asym_coupling", x, 1, 0, 0), "t1"),
    "bloch t2": (lambda x: model.ssh_bloch("asym_coupling", 1, x, 0, 0), "t2"),
    "bloch tau": (lambda x: model.ssh_bloch("imag_onsite", 1, 1, x, 0), "tau"),
    "bloch k": (lambda x: model.ssh_bloch("imag_onsite", 1, 1, 0, x), "k"),
}


@pytest.mark.parametrize("site", _REAL_PARAMETERS)
def test_real_parameters_refuse_complex_values(site):
    build, name = _REAL_PARAMETERS[site]
    build(0.3)
    for value in (np.complex128(0.3 + 0.2j), 0.3 + 0j):
        with pytest.raises(ValueError, match=f"^{name} must be real, got "):
            build(value)


def test_model_validation():
    hop = np.array([[0, 0], [1.0, 0]])  # amplitude from site 0 to site 1
    with pytest.raises(ValueError, match=r"coupling \(0, 1\) stays inside"):
        model.Model("m", hop, ("A", "A"))
    m = model.Model("m", hop, ("A", "A"), non_bipartite=True)
    assert m.n_sites == 2 and m.sublattice == ("A", "A")
    model.Model("m", hop, ("A", "none"))
    with pytest.raises(ValueError, match="square"):
        model.Model("m", np.zeros((2, 3)), ("A", "B"))
    with pytest.raises(ValueError, match="non-finite"):
        model.Model("m", np.diag([0.0, np.nan]), ("A", "B"))
    with pytest.raises(ValueError, match="257 > 256"):
        model.Model("m", np.zeros((257, 257)), ("none",) * 257)
    with pytest.raises(ValueError, match="at least one site"):
        model.Model("m", np.zeros((0, 0)), ())
    with pytest.raises(ValueError, match="need 2 sublattice labels, got 3"):
        model.Model("m", hop, ("A", "B", "A"))
    with pytest.raises(ValueError, match="bad sublattice label"):
        model.Model("m", hop, ("A", "C"))


def test_model_refuses_hints_that_are_not_strings():
    hop = [[0, 1], [1, 0]]
    for hints in ("chiral:sublattice", ["chiral:sublattice", 1],
                  (("chiral:g0",),)):
        with pytest.raises(ValueError, match="symmetry_hints"):
            model.Model("x", hop, ("A", "B"), symmetry_hints=hints)
    m = model.Model("x", hop, ("A", "B"),
                    symmetry_hints=iter(["chiral:sublattice"]))
    assert m.symmetry_hints == ("chiral:sublattice",)


def test_model_keeps_a_read_only_copy():
    H = np.array([[0.5, 1.0], [1.0, -0.5j]])
    m = model.Model("m", H, ("A", "B"))
    H[0, 0] = 7.0
    assert m.matrix[0, 0] == 0.5
    with pytest.raises(ValueError):
        m.matrix[0, 0] = 7.0
    # nor can the matrix be made writeable again, as an array that owns
    # its data could
    with pytest.raises(ValueError):
        m.matrix.flags.writeable = True
    out = model.to_matrix(m)
    out[0, 0] = 7.0
    assert m.matrix[0, 0] == 0.5


# the swapped site pairs of each permutation token; unlisted sites are fixed
_SWAPS = {
    "mirror1": ((1, 2), (3, 6), (4, 5), (8, 9), (10, 12)),
    "mirror2": ((1, 4), (2, 3), (5, 6), (7, 8), (11, 12)),
    "mirror3": ((1, 6), (2, 5), (3, 4), (7, 9), (10, 11)),
    # grouped order (chain 1,3,5 then 2,4): reversal swaps ends, fixes center
    "parity": ((0, 2), (3, 4)),
}


def test_lattice_operator_tokens():
    m = model.honeycomb_flake(1.0, 0.5)
    S = model.lattice_operator(m, "sublattice")
    assert_array_equal(np.diag(S), [1] * 7 + [-1] * 6)
    mc = model.mirror_chain(0.1)
    for token, swaps in _SWAPS.items():
        host = mc if token == "parity" else m
        expected = np.eye(host.n_sites, dtype=complex)
        for a, b in swaps:
            expected[[a, b]] = expected[[b, a]]
        P = model.lattice_operator(host, token)
        assert P.dtype == complex
        assert P.tobytes() == expected.tobytes()
    with pytest.raises(ValueError):
        model.lattice_operator(mc, "spin")


@pytest.mark.parametrize("token, host, message", [
    ("parity", "flake", r"parity acts on 5 sites; model 'honeycomb_flake' has 13"),
    ("mirror1", "chain", r"mirror1 acts on 13 sites; model 'mirror_chain' has 5"),
], ids=["parity-flake", "mirror1-chain"])
def test_permutation_tokens_refuse_other_site_counts(token, host, message):
    # the flake's 7 A and 6 B sites once passed for an alternating chain
    m = (model.honeycomb_flake(1.0, 0.5) if host == "flake"
         else model.mirror_chain(0.1))
    with pytest.raises(ValueError, match=message):
        model.lattice_operator(m, token)


def test_readme_library_example_runs():
    # the README's "Library" block is the documented model API
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Library\n", 1)[1].split("\n## ")[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


# --- file round trip ------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    for m in (model.honeycomb_flake(1.0, 0.8), model.mirror_chain(0.35)):
        path = tmp_path / f"{m.name}.model"
        model.save_model(m, path)
        back = model.load_model(path)
        assert_allclose(model.to_matrix(back), model.to_matrix(m), atol=0)
        assert back.n_sites == m.n_sites
        assert back.sublattice == m.sublattice


@pytest.mark.parametrize("name", ["a b", "a\tb"])
def test_model_name_round_trip(tmp_path, name):
    m = dataclasses.replace(model.mirror_chain(0.2), name=name)
    path = tmp_path / "m.model"
    model.save_model(m, path)
    assert model.load_model(path).name == name


@pytest.mark.parametrize("name", ["", "a#b", " a ", "a ", "\ta", "a\nb",
                                  "a\rb", "a\r\nb", "a\u2028b", "a\n"])
def test_model_rejects_names_that_do_not_round_trip(name):
    # none survives a save_model -> load_model round trip: "a#b" reads back
    # as "a", " a " as "a", "" is refused by the loader and "a\rb" splits
    # into two lines
    with pytest.raises(ValueError, match="model name"):
        dataclasses.replace(model.mirror_chain(0.2), name=name)


def test_load_model_diagnostics(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text("name x\nn_sites 2\nhop 0 0 1.0 0.0\n")
    with pytest.raises(ValueError, match=r"bad\.model:3"):
        model.load_model(path)
    path.write_text("name x\nhop 0 1 1.0 0.0\n")
    with pytest.raises(ValueError, match="n_sites"):
        model.load_model(path)
    path.write_text("name x\nn_sites 2\nwibble 1\n")
    with pytest.raises(ValueError, match="wibble"):
        model.load_model(path)


def test_load_model_accepts_the_documented_keywords(tmp_path):
    # exactly the keywords the README lists, written by hand
    path = tmp_path / "hand.model"
    path.write_text(
        "name hand-written triangle\n"
        "n_sites 3\n"
        "flags non_bipartite\n"
        "site 0 0.5 -0.25\n"
        "site 2 0 1\n"
        "hop 0 1 1.0 0.0\n"
        "hop 1 2 0.0 2.0\n"
        "hop 2 0 -1.5 0.5\n"
    )
    m = model.load_model(path)
    assert m.name == "hand-written triangle"
    assert m.non_bipartite
    H = np.array([[0.5 - 0.25j, 0, -1.5 + 0.5j],
                  [1.0, 0, 0],
                  [0, 2.0j, 1.0j]])
    assert_allclose(model.to_matrix(m), H, atol=0)
    # the sublattice column and symmetry lines are not part of the format
    for extra in ("site 1 0 0 A\n", "symmetry chiral:sublattice\n"):
        path.write_text("name x\nn_sites 2\n" + extra)
        with pytest.raises(ValueError, match=r"hand\.model:3"):
            model.load_model(path)


def test_load_model_two_coloring(tmp_path):
    path = tmp_path / "triangle.model"
    body = "name triangle\nn_sites 3\n" + "\n".join(
        f"hop {i} {j} 1.0 0.0\nhop {j} {i} 1.0 0.0"
        for i, j in ((0, 1), (1, 2), (0, 2))
    )
    path.write_text(body + "\n")
    with pytest.raises(ValueError, match="non_bipartite"):
        model.load_model(path)
    path.write_text("name triangle\nflags non_bipartite\nn_sites 3\n"
                    + body.split("n_sites 3\n")[1] + "\n")
    m = model.load_model(path)
    assert m.sublattice == ("none", "none", "none")


def test_load_model_comments_and_labels(tmp_path):
    path = tmp_path / "pair.model"
    path.write_text(
        "# two sites, one bond\n"
        "name pair\n"
        "n_sites 2\n"
        "site 0 0.0 0.25  # gain\n"
        "hop 0 1 1.0 0.0\n"
        "hop 1 0 1.0 0.0\n"
    )
    m = model.load_model(path)
    assert_allclose(model.to_matrix(m),
                    np.array([[0.25j, 1.0], [1.0, 0.0]]), atol=0)
    assert m.sublattice == ("A", "B")


@pytest.mark.parametrize("call, message", [
    (lambda: model.flake_mirror(4), r"mirror index must be 1, 2 or 3, got 4"),
    (lambda: model.pyramid("hidden", 1.0, 0.5, 0.8),
     r"variant must be 'nochiral' or 'chiral', got 'hidden'"),
    (lambda: model.lattice_operator(model.pyramid("chiral", 1.0, 0.5, 0.8),
                                    "sublattice"),
     r"model 'pyramid_chiral' has unlabeled sites"),
], ids=["flake_mirror-4",
        "pyramid-variant", "lattice_operator-unlabeled"])
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=message):
        call()
