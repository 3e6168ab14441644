"""Acceptance gate: one test per sign-off criterion.

Each test wraps its assertions in a gate that prints a single
``criterion NN: PASS`` or ``criterion NN: FAIL`` line, so a verbose run
doubles as the sign-off sheet.  Tolerances follow the package ladder:
1e-12 exact constructions, 1e-10 exact operators, 1e-9 discovered
operators, 1e-8 spectra, 1e-7 eigenvector-level statements.
"""

import numpy as np
import pytest

from nhsym import cli, clifford, linalg, model, spectra, symmetry


class _gate:
    def __init__(self, number, title):
        self.number = number
        self.title = title

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:02d}: {status}  ({self.title})")
        return False


def _pairing_dimension(values, tol=1e-8):
    # kernel dimension of the anticommutator map for a diagonalizable
    # matrix: one unit per ordered eigenvalue pair summing to zero
    return sum(1 for a in values for b in values if abs(a + b) <= tol)


def _basis16():
    return clifford.basis16(), clifford.basis16_labels()


def test_criterion_01_gamma_algebra():
    with _gate(1, "generator algebra identities, exact and sampled"):
        assert clifford.verify_clifford() == []
        assert clifford.verify_product_identities() == []


def test_criterion_02_dirac_chiral_operators():
    rng = np.random.default_rng(2)
    basis, labels = _basis16()
    with _gate(2, "four-level model: five chiral operators, dimension 8"):
        for _ in range(50):
            g1 = complex(rng.normal(), rng.normal())
            g2 = complex(rng.normal(), rng.normal())
            H = model.to_matrix(model.dirac4("a", g1, g2))
            mats = (clifford.gamma(0), clifford.gamma(2), clifford.gamma(3),
                    g2 * clifford.gamma(5) - g1 * clifford.gamma(1),
                    clifford.gamma((1, 5)))
            for mat in mats:
                op = symmetry.SymOp(mat, symmetry.LINEAR_ANTICOMMUTE)
                assert symmetry.check(H, op) <= 1e-12
            ops = symmetry.discover(H, "chiral", basis=basis, labels=labels)
            assert len(ops) == 8
            assert len(ops) == _pairing_dimension(linalg.eig(H).values)


def test_criterion_03_flake_zero_mode_and_coalescence():
    with _gate(3, "gain-loss flake: pinned mode, third-order point, ratios"):
        for tau in np.linspace(0.0, 1.4, 50):
            H = model.to_matrix(model.honeycomb_flake(1.0, tau))
            assert np.sum(np.abs(linalg.eig(H).values) <= 1e-10) == 1

        family = lambda t: model.to_matrix(model.honeycomb_flake(1.0, t))
        report = spectra.ep_locate(family, (1.0, 2.0))
        assert report.found
        assert abs(report.parameter - np.sqrt(2.0)) <= 1e-6
        assert (report.algebraic, report.geometric) == (3, 1)

        for tau, want in ((2.0, 4.0), (1.0, 1.0)):
            m = model.honeycomb_flake(1.0, tau)
            H = model.to_matrix(m)
            zero = [z for z in spectra.zero_modes(H) if z.kind == "zero"]
            assert len(zero) == 1
            ratio = spectra.intensity_ratio(zero[0].vector, m)
            assert abs(ratio - want) <= 1e-8

        m = model.honeycomb_flake(1.0, 0.9)
        H = model.to_matrix(m)
        chiral_hints = [h for h in m.symmetry_hints if h.startswith("chiral:")]
        assert len(chiral_hints) == 3
        for hint in chiral_hints:
            assert symmetry.check(H, symmetry.named_operator(m, hint)) <= 1e-12

        vals = np.sort(linalg.eig(
            model.to_matrix(model.honeycomb_flake(1.0, 0.0))).values.real)
        groups = []
        for v in vals:
            if groups and abs(v - groups[-1][-1]) <= 1e-8:
                groups[-1].append(v)
            else:
                groups.append([v])
        assert sum(1 for g in groups if len(g) >= 2) >= 4


def test_criterion_04_wheel_protocols_and_hidden_partner():
    with _gate(4, "wheel sweeps; chiral product survives complex offset"):
        proto = spectra.protocol("2b")
        result = spectra.sweep(proto.matrix_at, proto.lo, proto.hi,
                               n_steps=400)
        for step in result.steps:
            cls = spectra.classify_spectrum(step.eigenvalues)
            assert cls.origin <= 1e-8
            assert cls.real_axis <= 1e-8
            assert cls.imag_axis <= 1e-8

        proto = spectra.protocol("2c")
        result = spectra.sweep(proto.matrix_at, proto.lo, proto.hi,
                               n_steps=400)
        reals, imags = [], []
        for step in result.steps:
            cls = spectra.classify_spectrum(step.eigenvalues)
            assert cls.origin <= 1e-8
            reals.append(cls.real_axis)
            imags.append(cls.imag_axis)
        assert max(reals) > 1e-8
        assert max(imags) > 1e-8

        g1, g2 = 1 + 0.6j, 1.5 + 0.6j
        for beta in (0.75 - 0.1j, 0.4 + 0.9j):
            m = model.rt_wheel(beta, g1, g2)
            chiral = [h for h in m.symmetry_hints if h.startswith("chiral:")]
            assert len(chiral) == 1
            op = symmetry.named_operator(m, chiral[0])
            assert symmetry.check(model.to_matrix(m), op) <= 1e-10

        m = model.rt_wheel(0.75, g1, g2)
        H = model.to_matrix(m)
        C = symmetry.hidden_nhph(0.75, g1, g2)
        assert symmetry.check(H, C) <= 1e-10
        rt = symmetry.named_operator(
            m, [h for h in m.symmetry_hints if h.startswith("rt:")][0])
        prod = symmetry.product(rt, C)
        assert symmetry.check(H, prod) <= 1e-10
        chiral = symmetry.named_operator(
            m, [h for h in m.symmetry_hints if h.startswith("chiral:")][0])
        a = prod.matrix.ravel()
        b = chiral.matrix.ravel()
        pivot = np.argmax(np.abs(b))
        scale = a[pivot] / b[pivot]
        assert np.linalg.norm(a - scale * b) <= 1e-10 * np.linalg.norm(a)


def test_criterion_05_pyramid_detuning():
    rng = np.random.default_rng(5)
    basis, labels = _basis16()
    g1, g2, g3 = 1.0, 0.5, 0.8
    with _gate(5, "pyramid: discovery, detuned operator, origin sweeps"):
        H = model.to_matrix(model.pyramid("nochiral", g1, g2, g3))
        assert symmetry.discover(H, "chiral", basis=basis, labels=labels) == []

        H = model.to_matrix(model.pyramid("chiral", g1, g2, g3))
        for single in ((1,), (0, 5)):
            op = symmetry.SymOp(clifford.gamma(single),
                                symmetry.LINEAR_ANTICOMMUTE)
            assert symmetry.check(H, op) <= 1e-10

        for _ in range(10):
            d1 = complex(rng.normal(), rng.normal())
            d2 = complex(rng.normal(), rng.normal())
            md = model.pyramid("chiral", g1, g2, g3,
                               detunings=(((1, 2), d1), ((3, 5), d2)))
            Hd = model.to_matrix(md)
            expr = model.pyramid_evolving_chiral(g1, d2)
            op = symmetry.SymOp(clifford.expr_to_matrix(expr),
                                symmetry.LINEAR_ANTICOMMUTE)
            assert symmetry.check(Hd, op) <= 1e-10

        for tag in ("4c", "4d"):
            proto = spectra.protocol(tag)
            result = spectra.sweep(proto.matrix_at, proto.lo, proto.hi,
                                   n_steps=400)
            for step in result.steps:
                assert spectra.classify_spectrum(
                    step.eigenvalues).origin <= 1e-8

        md = model.pyramid("chiral", g1, g2, g3,
                           detunings=(((0,), 0.3 + 0.2j), ((1, 2), 0.4 - 0.7j),
                                      ((3, 5), 0.9 + 0.2j)))
        Hd = model.to_matrix(md)
        assert symmetry.discover(Hd, "chiral", basis=basis, labels=labels) == []


def test_criterion_06_detuned_mirror_chain():
    with _gate(6, "mirror chain: dagger relation, parity product, mapping"):
        m = model.mirror_chain(0.3)
        H = model.to_matrix(m)
        C = symmetry.named_operator(m, "antipseudo:sublattice")
        assert symmetry.check(H, C) <= 1e-12
        eta = symmetry.named_operator(m, "pseudo:parity*sublattice")
        assert symmetry.check(H, eta) <= 1e-10

        proto = spectra.protocol("5b")
        result = spectra.sweep(proto.matrix_at, proto.lo, proto.hi,
                               n_steps=400)
        for step in result.steps:
            assert spectra.classify_spectrum(step.eigenvalues).origin <= 1e-8

        Hm = model.to_matrix(model.mirror_chain(abs(model.CHAIN_COUPLING)))
        zero = [z for z in spectra.zero_modes(Hm) if z.kind == "zero"]
        assert len(zero) == 1
        v = zero[0].vector / np.linalg.norm(zero[0].vector)
        profile = np.abs(v) ** 2
        assert np.allclose(profile, [0.125, 0.5, 0.125, 0.125, 0.125],
                           atol=1e-7)

        Hw = symmetry.wick_rotate(H)
        Cw = symmetry.SymOp(C.matrix, symmetry.DAGGER_PLUS)
        assert symmetry.check(Hw, Cw) <= 1e-12
        parity = symmetry.named_operator(m, "rt:parity")
        Pw = symmetry.SymOp(parity.matrix, symmetry.ANTILINEAR_ANTICOMMUTE)
        assert symmetry.check(Hw, Pw) <= 1e-12

        for delta in (0.3, abs(model.CHAIN_COUPLING)):
            Hd = model.to_matrix(model.mirror_chain(delta))
            sysd = linalg.eig(Hd)
            # the left eigenvectors of Hd are the right ones of Hd.T
            left = linalg.eig(Hd.T)
            scale = np.max(np.abs(sysd.values))
            for mu in range(len(left.values)):
                phi = eta.matrix @ left.right_vectors[:, mu]
                partners = np.abs(sysd.values + left.values[mu]) <= 1e-8 * scale
                assert partners.any()
                span = sysd.right_vectors[:, partners]
                resid = phi - span @ np.linalg.lstsq(span, phi, rcond=None)[0]
                assert np.linalg.norm(resid) <= 1e-7 * np.linalg.norm(phi)


def test_criterion_07_pseudo_from_sa_split():
    rng = np.random.default_rng(7)
    basis, labels = _basis16()
    with _gate(7, "pseudo operator from the symmetric/antisymmetric split"):
        for _ in range(20):
            g1 = complex(rng.normal(), rng.normal())
            g2 = complex(rng.normal(), rng.normal())
            H = model.to_matrix(model.dirac4("a", g1, g2))
            res = symmetry.pseudo_from_sa(H)
            assert res.eta is not None
            assert symmetry.check(H, res.eta) <= 1e-10
        for _ in range(20):
            t1, t2 = rng.uniform(0.5, 2.0, size=2)
            tau = rng.uniform(0.0, 1.0)
            k = rng.uniform(-np.pi, np.pi)
            H = model.ssh_bloch("imag_onsite", t1, t2, tau, k)
            res = symmetry.pseudo_from_sa(H)
            assert res.eta is not None
            assert symmetry.check(H, res.eta) <= 1e-10

        # construction with a non-anticommuting split: the recipe yields
        # nothing, yet a pseudo operator exists by direct inspection.  An
        # invertible pseudo operator gives spec(H) = spec(-H^T) = -spec(H),
        # so H X + X H = 0 has nonzero solutions (Sylvester) and the
        # chiral space is not empty (it is 4-dimensional); what the
        # construction shows instead is that H is pseudo-chiral through
        # the single product g0 g5 while no generator product is chiral
        H = (clifford.gamma(0) + clifford.gamma(5) + clifford.gamma(1)
             + clifford.gamma(3) + clifford.gamma((1, 3))
             + (1 + 1j) * clifford.gamma((0, 5)))
        res = symmetry.pseudo_from_sa(H)
        assert res.eta is None
        assert res.anticommutator_norm == pytest.approx(np.sqrt(32.0))
        eta = symmetry.SymOp(clifford.gamma((0, 5)), symmetry.TRANSPOSE_MINUS)
        assert symmetry.check(H, eta) <= 1e-10
        ops = symmetry.discover(H, "chiral", basis=basis, labels=labels)
        assert len(ops) == 4
        for mat in basis:
            op = symmetry.SymOp(mat, symmetry.LINEAR_ANTICOMMUTE)
            assert symmetry.check(H, op) > 1e-9


def test_criterion_08_two_band_sublattice_fate():
    sz = np.diag([1.0, -1.0]).astype(complex)
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    op_z = symmetry.SymOp(sz, symmetry.LINEAR_ANTICOMMUTE)
    op_y = symmetry.SymOp(sy, symmetry.TRANSPOSE_MINUS)
    with _gate(8, "two-band models: sublattice operator survives or dies"):
        for k in np.linspace(-np.pi, np.pi, 100):
            H = model.ssh_bloch("asym_coupling", 1.0, 0.7, 0.3, k)
            assert symmetry.check(H, op_z) <= 1e-12
        for k in np.linspace(-np.pi, np.pi, 100):
            H = model.ssh_bloch("imag_onsite", 1.0, 0.7, 0.3, k)
            assert symmetry.check(H, op_z) > 1e-3
            assert symmetry.check(H, op_y) <= 1e-12


def test_criterion_09_pseudo_operator_closure():
    with _gate(9, "transpose and commuting products stay pseudo operators"):
        cases = []
        m = model.mirror_chain(0.3)
        cases.append((model.to_matrix(m),
                      symmetry.named_operator(m, "pseudo:parity*sublattice")))
        m = model.dirac4("a", 1 + 0.3j, 0.5 - 0.2j)
        cases.append((model.to_matrix(m),
                      symmetry.named_operator(m, "pseudo:g1")))
        cases.append((model.ssh_bloch("imag_onsite", 1.0, 0.7, 0.3, 0.8),
                      symmetry.SymOp(np.array([[0.0, -1j], [1j, 0.0]]),
                                     symmetry.TRANSPOSE_MINUS)))
        for H, eta in cases:
            report = symmetry.pseudo_properties(
                H, eta.matrix, commuting=(H, np.eye(len(H))))
            assert report.base <= 1e-10
            assert report.transpose <= 1e-10
            assert len(report.products) == 2
            for comm, prod in report.products:
                assert comm <= 1e-10
                assert prod is not None and prod <= 1e-10


def test_criterion_10_reproducible_outputs(tmp_path, capsys):
    with _gate(10, "repeated runs write byte-identical artifacts"):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(["sweep", "--fig", "2b", "--out", str(out_a)]) == 0
        assert cli.main(["sweep", "--fig", "2b", "--out", str(out_b)]) == 0
        capsys.readouterr()
        for fname in ("2b_trajectories.csv", "2b_events.json"):
            assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes()
        assert cli.main(["ep", "--family", "jordan2",
                         "--bracket", "-0.1", "0.1"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["ep", "--family", "jordan2",
                         "--bracket", "-0.1", "0.1"]) == 0
        second = capsys.readouterr().out
        assert first == second
