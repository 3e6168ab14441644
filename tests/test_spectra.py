import os
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nhsym import model, spectra
from nhsym.linalg import eig


# --- spectrum classification ----------------------------------------------

def test_classify_fully_symmetric_set():
    cls = spectra.classify_spectrum([1, -1, 1j, -1j])
    assert cls.origin == 0.0
    assert cls.real_axis == 0.0
    assert cls.imag_axis == 0.0
    assert cls.held() == ("origin", "real", "imag")


def test_classify_single_axis():
    # {1 + i/2, -1 + i/2} maps to itself only under the imaginary-axis
    # reflection; the best origin matching costs exactly 1
    cls = spectra.classify_spectrum([1 + 0.5j, -1 + 0.5j])
    assert cls.imag_axis <= 1e-15
    assert cls.origin == pytest.approx(1.0)
    assert cls.real_axis == pytest.approx(1.0)
    assert cls.held() == ("imag",)


def test_classify_validation():
    with pytest.raises(ValueError):
        spectra.classify_spectrum([])
    # scipy's assignment used to fail with "matrix contains invalid
    # numeric entries"
    with pytest.raises(ValueError, match="values have non-finite"):
        spectra.classify_spectrum([1, np.nan])


@pytest.mark.parametrize("values, message", [
    ([], "empty spectrum"), ([np.inf, 1], "values have non-finite")])
def test_reflection_defect_validation(values, message):
    # numpy's "zero-size array to reduction operation" and scipy's "cost
    # matrix is infeasible" used to surface here
    with pytest.raises(ValueError, match=message):
        spectra.reflection_defect(values, "origin")


# --- zero modes -----------------------------------------------------------

def test_zero_modes_kinds():
    H = np.diag([0.0, 2.0j, 3.0, -1.5j])
    modes = spectra.zero_modes(H)
    assert sorted(m.kind for m in modes) == ["imaginary", "imaginary", "zero"]
    assert all(m.value != 3.0 for m in modes)
    zero = [m for m in modes if m.kind == "zero"][0]
    assert np.linalg.norm(H @ zero.vector) <= 1e-12


def test_flake_zero_mode_reported_at_all_couplings():
    for tau in (0.0, 0.7, 1.8):
        H = model.to_matrix(model.honeycomb_flake(1.0, tau))
        zeros = [m for m in spectra.zero_modes(H) if m.kind == "zero"]
        assert len(zeros) == 1


def test_zero_modes_survive_huge_matrices():
    # ||H||_F is now taken on the power-of-two rescaled H; np.linalg.norm
    # was inf here, so every mode counted as "zero"
    m = model.mirror_chain(0.3)
    H = model.to_matrix(m)
    big = H * 2.0**530
    kinds = [z.kind for z in spectra.zero_modes(H)]
    assert kinds.count("zero") == 1
    assert [z.kind for z in spectra.zero_modes(big)] == kinds


def test_zero_modes_at_the_float_limit():
    # ||H||_F overflowed (a RuntimeWarning) before the comparison was
    # rescaled; no eigenvalue of this H lies near zero or the imaginary axis
    assert spectra.zero_modes(np.diag([1e308, 1e308, -1e308, -1e308])) == []


# --- exceptional points ---------------------------------------------------

def test_ep_jordan2():
    rep = spectra.ep_locate(spectra.jordan2, (-0.1, 0.1))
    assert rep.found
    assert abs(rep.parameter) <= 1e-7
    assert (rep.algebraic, rep.geometric, rep.order) == (2, 1, 2)


def test_ep_flake_third_order():
    family = lambda t: model.to_matrix(model.honeycomb_flake(1.0, t))
    rep = spectra.ep_locate(family, (1.2, 1.6))
    assert rep.found
    assert rep.parameter == pytest.approx(np.sqrt(2.0), abs=1e-6)
    assert (rep.algebraic, rep.geometric, rep.order) == (3, 1, 3)
    assert abs(rep.value) <= 1e-4


_FLAKE = lambda t: model.to_matrix(model.honeycomb_flake(1.0, t))


@pytest.mark.parametrize("family, bracket, target, blocks", [
    # at tau = sqrt(3) - 1 the value 3**(1/4) carries two 2x2 Jordan
    # blocks; algebraic - geometric + 1 called it a third-order point
    (_FLAKE, (0.7, 0.76), 1.3160740129524924, (2, 2)),
    (_FLAKE, (1.2, 1.6), 0j, (3,)),
    (spectra.jordan2, (-0.1, 0.1), 0j, (2,)),
    # two 2x2 Jordan families side by side
    (lambda p: np.kron(np.eye(2), spectra.jordan2(p)), (-0.1, 0.1), 0j,
     (2, 2)),
    # a non-defective double eigenvalue next to a simple one
    (lambda p: np.diag([p, p, 1.0]), (-0.1, 0.1), 0j, (1, 1)),
], ids=["flake-sqrt3-1", "flake-sqrt2", "jordan2", "two-jordan2",
        "diagonal-double"])
def test_ep_blocks(family, bracket, target, blocks):
    rep = spectra.ep_locate(family, bracket, target=target)
    assert rep.found
    assert rep.blocks == blocks
    assert (rep.algebraic, rep.geometric, rep.order) == (
        sum(blocks), len(blocks), max(blocks))


@pytest.mark.parametrize("k", [-40, -17, 0, 23, 40])
def test_ep_blocks_are_scale_free(k):
    target = 1.3160740129524924
    rep = spectra.ep_locate(lambda t: 2.0**k * _FLAKE(t), (0.7, 0.76),
                            target=2.0**k * target,
                            found_tol=2.0**k * spectra.EP_FOUND_TOL)
    assert rep.found and rep.blocks == (2, 2)


def test_ep_none_in_chain_bracket():
    family = lambda d: model.to_matrix(model.mirror_chain(d))
    rep = spectra.ep_locate(family, (0.0, 1.00499))
    assert not rep.found
    assert rep.spread > 1.0
    assert rep.value is None


def test_ep_validation():
    with pytest.raises(ValueError):
        spectra.ep_locate(spectra.jordan2, (0.2, 0.1))
    with pytest.raises(ValueError):
        spectra.ep_locate(lambda p: np.array([[p]]), (0.0, 1.0))


@pytest.mark.parametrize("target", [complex("nan"), complex("inf"),
                                    complex(0, float("-inf"))])
def test_ep_rejects_non_finite_target(target):
    with pytest.raises(ValueError, match="target"):
        spectra.ep_locate(spectra.jordan2, (-0.1, 0.1), target=target)


def test_ep_param_tol_below_float_spacing_returns(monkeypatch):
    # the golden-section bracket cannot shrink below adjacent floats; the
    # search used to loop there for ever, so the family counts its calls
    calls = []

    def family(p):
        calls.append(p)
        if len(calls) > 1000:
            raise RuntimeError("ep_locate does not terminate")
        return spectra.jordan2(p)

    monkeypatch.setattr(spectra, "EP_PARAM_TOL", 1e-300)
    rep = spectra.ep_locate(family, (0.5, 1.0))
    assert not rep.found
    assert rep.parameter == pytest.approx(0.5)


def test_ep_midpoint_near_the_float_limit_is_finite():
    # lo + hi overflowed for a bracket above half the largest float
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
    rep = spectra.ep_locate(lambda p: jordan, (1e308, 1.7e308))
    assert rep.found and rep.order == 2
    assert 1e308 <= rep.parameter <= 1.7e308


def test_ep_cluster_at_the_float_limit_is_finite():
    # ||H||_F and the sum of the two coalescing eigenvalues overflowed, and
    # the NaN mean was then refused as the centre of the count
    def family(p):
        return np.array([[1e308, 1, 0], [p, 1e308, 0], [0, 0, -1e308]])

    rep = spectra.ep_locate(family, (-0.1, 0.1), target=1e308)
    assert rep.found
    assert rep.value == 1e308
    assert (rep.algebraic, rep.geometric) == (2, 2)


def test_ep_zero_family_counts_every_eigenvalue():
    # the cluster radius max(5 * spread, TOL_CLUSTER * ||H||_F) is 0 there;
    # the report matches that of the scalar family p * I
    zero = spectra.ep_locate(lambda p: np.zeros((3, 3)), (0, 1))
    scalar = spectra.ep_locate(lambda p: p * np.eye(3), (0, 1))
    missed = spectra.ep_locate(spectra.jordan2, (0.5, 1.0))
    for rep in (zero, scalar):
        assert rep.found
        assert (rep.algebraic, rep.geometric, rep.order) == (3, 3, 1)
        assert rep.blocks == (1, 1, 1)
    assert zero.value == 0 and zero.spread == 0.0
    for rep in (zero, scalar, missed):
        assert type(rep.parameter) is float and type(rep.spread) is float


# a numpy complex used to lose its imaginary part with only a warning, and
# a Python complex raised a bare TypeError from float()
_REAL_PARAMETERS = {
    "jordan2 delta": (spectra.jordan2, "delta"),
    "ep_locate lo": (lambda x: spectra.ep_locate(spectra.jordan2, (x, 1.0)),
                     "bracket"),
    "ep_locate hi": (lambda x: spectra.ep_locate(spectra.jordan2, (-1.0, x)),
                     "bracket"),
    "sweep lo": (lambda x: spectra.sweep(spectra.jordan2, x, 1.0, 5), "lo"),
    "sweep hi": (lambda x: spectra.sweep(spectra.jordan2, -1.0, x, 5), "hi"),
}


@pytest.mark.parametrize("site", _REAL_PARAMETERS)
def test_real_parameters_refuse_complex_values(site):
    call, name = _REAL_PARAMETERS[site]
    for value in (np.complex128(0.3 + 0.2j), 0.3 + 0j):
        with pytest.raises(ValueError, match=f"^{name} must be real, got "):
            call(value)


def _uncalled(p):
    raise AssertionError(f"family called at {p}")


@pytest.mark.parametrize("lo, hi", [(-np.inf, 0.1), (-0.1, np.inf),
                                    (np.nan, 0.1), (0.0, np.nan),
                                    (-1e308, 1e308)])
def test_non_finite_ranges_are_refused_before_the_family(lo, hi):
    # they used to reach the family through linspace's RuntimeWarnings and
    # be blamed on the matrix ("H has non-finite entries")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"bracket \(.*finite"):
            spectra.ep_locate(_uncalled, (lo, hi))
        with pytest.raises(ValueError, match=r"sweep range \(.*finite"):
            spectra.sweep(_uncalled, lo, hi, 5)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-3])
@pytest.mark.parametrize("name", ["found_tol"])
def test_ep_rejects_bad_tolerance(name, tol):
    # a NaN found_tol used to report an order-1 exceptional point at
    # the end of a bracket that holds none
    with pytest.raises(ValueError, match=name):
        spectra.ep_locate(spectra.jordan2, (0.5, 1.0), **{name: tol})


# --- sweeps ---------------------------------------------------------------

def test_sweep_trajectories_are_continuous():
    family = lambda t: model.to_matrix(model.honeycomb_flake(1.0, t))
    result = spectra.sweep(family, 0.0, 2.0, n_steps=80)
    assert len(result.steps) == 80
    traj = np.array([s.eigenvalues for s in result.steps])
    jumps = np.abs(np.diff(traj, axis=0)).max()
    assert jumps < 0.4


def test_sweep_flags_pinned_zero_mode():
    family = lambda t: model.to_matrix(model.honeycomb_flake(1.0, t))
    result = spectra.sweep(family, 0.0, 1.0, n_steps=30)
    for step in result.steps:
        assert sum(1 for f in step.flags if "Z" in f) == 1


def test_sweep_ep_candidate_near_coalescence():
    # eigenvalues +-p approach the defective point at p=0 linearly, so the
    # pair-distance dip is sharp enough for the 5 percent gate at this density
    family = lambda p: np.array([[p, 1.0], [0.0, -p]], dtype=complex)
    result = spectra.sweep(family, -0.5, 0.53, n_steps=52)
    eps = [e for e in result.events if e.kind == "ep_candidate"]
    assert len(eps) == 1
    assert abs(eps[0].param) < 0.05


def test_sweep_zero_crossing_between_grid_points():
    # one real eigenvalue passes through zero off-grid
    family = lambda p: np.diag([p - 0.4303, 2.0]).astype(complex)
    result = spectra.sweep(family, 0.0, 1.0, n_steps=40)
    crossings = [e for e in result.events if e.kind == "zero_crossing"]
    assert len(crossings) == 1
    assert crossings[0].param == pytest.approx(0.4303, abs=0.03)


def test_sweep_zero_crossing_at_any_scale():
    # the segment's squared length overflowed at 2**600, which hid the
    # crossing between the two grid points; an absolute zero threshold
    # flagged every value as zero at 2**-40 and 2**-600, which hid it too
    for scale in (1.0, 2.0**600, 2.0**-40, 2.0**-600):
        family = lambda p: np.array([[(p - 0.55) * scale, 0],
                                     [0, 1j * scale]])
        result = spectra.sweep(family, 0.0, 1.0, n_steps=2)
        assert [(e.step, e.kind) for e in result.events] == [
            (1, "zero_crossing")], scale


def test_sweep_degeneracy_event():
    family = lambda p: np.diag([p, 1.0 - p]).astype(complex)
    result = spectra.sweep(family, 0.0, 1.0, n_steps=41)
    # trajectories meet exactly at p = 0.5, a grid point
    assert any(e.kind == "degeneracy" for e in result.events)


def test_sweep_exact_doublets_do_not_fake_eps():
    # two identical blocks keep every pair distance at rounding level;
    # no coalescence events should come from them
    block = spectra.jordan2
    family = lambda p: np.kron(np.eye(2), np.diag([p, 2.0]).astype(complex))
    result = spectra.sweep(family, 0.4, 1.6, n_steps=60)
    assert [e.kind for e in result.events].count("ep_candidate") == 0


def test_sweep_validation():
    with pytest.raises(ValueError):
        spectra.sweep(spectra.jordan2, 0.0, 1.0, n_steps=1)


def test_sweep_step_limit_checked_before_any_work():
    def family(p):
        raise AssertionError("family called")

    with pytest.raises(ValueError, match="limit"):
        spectra.sweep(family, 0.0, 1.0, n_steps=spectra.MAX_STEPS + 1)
    with pytest.raises(ValueError, match="limit"):
        spectra.sweep(family, 0.0, 1.0, n_steps=10**12)


# --- csv ------------------------------------------------------------------

def test_to_csv_layout_and_determinism(tmp_path):
    result = spectra.sweep(spectra.jordan2, 0.0, 1.0, n_steps=5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    spectra.to_csv(result, p1)
    spectra.to_csv(result, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "param,mode_id,re,im,flags"
    assert len(lines) == 1 + 5 * 2
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"


# --- intensity ratio ------------------------------------------------------

def test_intensity_ratio_flake_values():
    # the zero mode's B/A peak ratio is tau^2, as in criterion 03
    for tau, expected in ((1.0, 1.0), (2.0, 4.0), (0.8, 0.64)):
        m = model.honeycomb_flake(1.0, tau)
        H = model.to_matrix(m)
        zero = [z for z in spectra.zero_modes(H) if z.kind == "zero"]
        assert len(zero) == 1
        assert (spectra.intensity_ratio(zero[0].vector, m)
                == pytest.approx(expected, abs=1e-10))


def test_intensity_ratio_validation():
    m = model.honeycomb_flake(1.0, 0.5)
    with pytest.raises(ValueError):
        spectra.intensity_ratio(np.ones(4), m)
    with pytest.raises(ValueError):
        spectra.intensity_ratio(np.zeros(13), m)
    mp = model.pyramid("nochiral", 1.0, 0.5, 0.8)
    with pytest.raises(ValueError, match="labels"):
        spectra.intensity_ratio(np.ones(4), mp)
    # a NaN entry used to come back as a NaN ratio
    with pytest.raises(ValueError, match="psi has non-finite"):
        spectra.intensity_ratio(np.r_[np.nan, np.ones(12)], m)


def test_intensity_ratio_all_on_b():
    m = model.mirror_chain(0.2)
    psi = np.array([0, 0, 0, 1.0, 1.0])
    assert spectra.intensity_ratio(psi, m) == np.inf


# --- protocols ------------------------------------------------------------

def test_protocol_tags():
    for tag in ("1b", "2b", "2c", "4c", "4d", "5b"):
        proto = spectra.PROTOCOLS[tag]
        assert proto.tag == tag
        assert proto.lo < proto.hi
        H = proto.matrix_at(proto.lo + 0.3 * (proto.hi - proto.lo))
        assert H.shape[0] == H.shape[1]
        assert "origin" in proto.symmetric
    with pytest.raises(KeyError, match="9z"):
        spectra.PROTOCOLS["9z"]


def test_protocol_2c_breaks_axes_somewhere():
    proto = spectra.PROTOCOLS["2c"]
    reals, imags = [], []
    for s in np.linspace(proto.lo, proto.hi, 41):
        cls = spectra.classify_spectrum(eig(proto.matrix_at(s)).values)
        # s=1.5 sits exactly on a defective point where eigenvalue accuracy
        # is limited to sqrt(machine eps), hence the looser origin bound here
        assert cls.origin <= 1e-7
        reals.append(cls.real_axis)
        imags.append(cls.imag_axis)
    assert max(reals) > 1e-3
    assert max(imags) > 1e-3


def test_protocol_5b_range():
    proto = spectra.PROTOCOLS["5b"]
    assert proto.hi == pytest.approx(abs(model.CHAIN_COUPLING))


def _readme_sweep_table():
    """``(tag, declared reflections)`` per row of the README's sweep
    protocol table."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("### sweep\n", 1)[1].split("\n### ")[0]
    lines = [ln for ln in section.splitlines() if ln.startswith("|")]
    header = [c.strip() for c in lines[0].strip("|").split("|")]
    tag, declared = header.index("tag"), header.index("declared reflections")
    rows = []
    for line in lines[2:]:
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows.append((cells[tag],
                     tuple(a.strip() for a in cells[declared].split(","))))
    return rows


def test_readme_sweep_table_matches_protocols():
    assert _readme_sweep_table() == [(tag, p.symmetric)
                                     for tag, p in spectra.PROTOCOLS.items()]


def test_zero_modes_survive_eig_at_2_to_600():
    # eig's residual norms overflowed at this scale, so zero_modes raised
    # ConvergenceError on a correct decomposition
    m = model.mirror_chain(0.3)
    H = model.to_matrix(m)
    big = H * 2.0**600
    assert ([z.kind for z in spectra.zero_modes(big)]
            == [z.kind for z in spectra.zero_modes(H)])


@pytest.mark.parametrize("power", [-600, 600])
def test_intensity_ratio_is_scale_free(power):
    # the plain norm overflowed to inf above about 1e154 and underflowed
    # to a "zero vector" below about 1e-162
    m = model.honeycomb_flake(1.0, 2.0)
    rng = np.random.default_rng(6)
    psi = rng.normal(size=13) + 1j * rng.normal(size=13)
    assert (spectra.intensity_ratio(psi * 2.0**power, m)
            == spectra.intensity_ratio(psi, m))


@pytest.mark.parametrize("call, message", [
    (lambda: spectra.reflection_defect([1.0, -1.0], "diagonal"),
     r"unknown axis 'diagonal'; expected one of \('origin', 'real', "
     r"'imag'\)"),
], ids=["reflection_defect-axis"])
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=message):
        call()
