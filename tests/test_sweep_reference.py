"""The sweep's array layer against the scalar loops it replaced.

``_scalar_sweep`` below is the per-step, per-mode implementation of
``spectra.sweep``'s flags and events as it stood before they became array
operations on the trajectory; it is kept here only as a reference.  The
families are seeded affine matrices H(p) = S (A + p B) S^-1 with zero
crossings (on and between grid points), grid-point degeneracies, an
imaginary-axis mode, a mode pinned at zero and coalescences forced into
them.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy.optimize import linear_sum_assignment

from nhsym import spectra
from nhsym.linalg import TOL_CLUSTER, eig
from nhsym.spectra import EP_CONFIRM, EP_DIP, EP_OVERLAP, ZERO_MODE_TOL


def _segment_miss(z1, z2):
    dz = z2 - z1
    length2 = abs(dz) ** 2
    if length2 == 0:
        return abs(z1)
    t = -np.real(np.conj(dz) * z1) / length2
    t = min(max(t, 0.0), 1.0)
    return abs(z1 + t * dz)


def _mode_flags(values, zero_tol, cluster_tol):
    n = values.size
    flags = []
    for i in range(n):
        s = ""
        if abs(values[i]) <= zero_tol:
            s += "Z"
        elif abs(values[i].real) <= zero_tol:
            s += "I"
        others = np.abs(values - values[i])
        others[i] = np.inf
        if others.min() <= cluster_tol:
            s += "D"
        flags.append(s)
    return tuple(flags)


def _scalar_sweep(family, lo, hi, n_steps):
    """Trajectory, per-step flags and ``(step, param, kind)`` events."""
    params = np.linspace(float(lo), float(hi), n_steps)
    rows = []
    prev = None
    for p in params:
        vals = eig(np.asarray(family(p), dtype=complex)).values
        if prev is not None:
            cost = np.abs(prev[:, None] - vals[None, :])
            ridx, cidx = linear_sum_assignment(cost)
            vals = vals[cidx[np.argsort(ridx)]]
        rows.append(vals)
        prev = vals
    traj = np.array(rows)
    n = traj.shape[1]
    # both thresholds relative to the largest |eps| of the sweep
    amax = max(float(np.abs(traj).max()), 1e-300)
    zero_tol = ZERO_MODE_TOL * amax
    cluster_tol = TOL_CLUSTER * amax
    flags = [_mode_flags(traj[k], zero_tol, cluster_tol)
             for k in range(n_steps)]

    events = []
    count_z = [sum(1 for f in fl if "Z" in f) for fl in flags]
    count_d = [sum(1 for f in fl if "D" in f) for fl in flags]
    for k in range(1, n_steps):
        crossing = count_z[k] != count_z[k - 1]
        if not crossing:
            for i in range(n):
                z1, z2 = traj[k - 1, i], traj[k, i]
                if abs(z1) <= zero_tol and abs(z2) <= zero_tol:
                    continue
                if _segment_miss(z1, z2) <= zero_tol:
                    crossing = True
                    break
        if crossing:
            events.append((k, float(params[k]), "zero_crossing"))
        if count_d[k] != count_d[k - 1]:
            events.append((k, float(params[k]), "degeneracy"))

    threshold = EP_DIP * amax
    ep_steps = set()
    for i in range(n):
        for j in range(i + 1, n):
            d = np.abs(traj[:, i] - traj[:, j])
            for k in range(1, n_steps - 1):
                if k in ep_steps:
                    continue
                if not cluster_tol < d[k] <= threshold:
                    continue
                if not (d[k] < d[k - 1] and d[k] < d[k + 1]):
                    continue
                mid = (traj[k, i] + traj[k, j]) / 2.0
                best = d[k]
                overlap = 0.0
                for q in np.linspace(params[k - 1], params[k + 1], 21):
                    system = eig(np.asarray(family(q), dtype=complex))
                    order = np.argsort(np.abs(system.values - mid))
                    a, b = int(order[0]), int(order[1])
                    pair = abs(system.values[a] - system.values[b])
                    if pair < best:
                        best = float(pair)
                        overlap = abs(np.vdot(system.right_vectors[:, a],
                                              system.right_vectors[:, b]))
                if best <= EP_CONFIRM * d[k] and overlap >= EP_OVERLAP:
                    ep_steps.add(k)
                    events.append((k, float(params[k]), "ep_candidate"))
    events.sort(key=lambda e: (e[0], e[2]))
    return traj, flags, events


STEPS = 51
GRID = np.linspace(0.0, 1.0, STEPS)
H_STEP = GRID[1] - GRID[0]
# (name, number of modes) of the features a family can carry; every
# coalescence of one family sits at the same step
FEATURES = (("coalescence", 2), ("zero", 1), ("pair", 2), ("imag", 1),
            ("pinned", 1), ("coalescence", 2))


def _affine_family(n, seed):
    """H(p) = S (A + p B) S^-1 on n modes; the seed picks which features
    fit and where they sit, the remaining modes drift at random."""
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n), dtype=complex)
    B = np.zeros((n, n), dtype=complex)
    start = seed % len(FEATURES)
    k_ep = int(rng.integers(10, STEPS - 10))
    m = 0
    for name, size in FEATURES[start:] + FEATURES[:start]:
        if m + size > n:
            continue
        k = int(rng.integers(10, STEPS - 10))
        unit = np.exp(2j * np.pi * rng.random())
        if name == "coalescence":
            # c +- sqrt(p - p_ep): a second-order EP just past grid point k_ep
            c = 3.0 * unit
            A[m:m + 2, m:m + 2] = [[c, 1.0],
                                   [-(GRID[k_ep] + 0.1 * H_STEP), c]]
            B[m + 1, m] = 1.0
        elif name == "zero":
            # s (p - p0): through the origin at grid point k or between
            # grid points
            p0 = GRID[k] + (0.37 * H_STEP if seed % 2 else 0.0)
            A[m, m], B[m, m] = -p0 * unit, unit
        elif name == "pair":
            # two modes meeting at grid point k, apart elsewhere
            d = 1.5 * np.exp(2j * np.pi * rng.random())
            for q, slope in ((m, unit), (m + 1, -unit * (1 + rng.random()))):
                A[q, q], B[q, q] = d - GRID[k] * slope, slope
        elif name == "imag":
            A[m, m] = 1j * (0.5 + rng.random())
        # a pinned mode keeps A = B = 0
        m += size
    for q in range(m, n):
        A[q, q] = 2.0 * (rng.random() - 0.5) + 2j * (rng.random() - 0.5)
        B[q, q] = 0.3 * (rng.random() - 0.5)
    S = np.eye(n) + 0.3 * (rng.normal(size=(n, n))
                           + 1j * rng.normal(size=(n, n)))
    S_inv = np.linalg.inv(S)
    return lambda p: S @ (A + p * B) @ S_inv


def _counted(family):
    calls = []

    def counted(p):
        calls.append(p)
        return family(p)
    return counted, calls


CASES = [(n, seed) for n in range(2, 7) for seed in range(len(FEATURES))]


@pytest.mark.parametrize("n, seed", CASES)
def test_sweep_matches_scalar_loops(n, seed):
    family, calls = _counted(_affine_family(n, seed))
    result = spectra.sweep(family, 0.0, 1.0, n_steps=STEPS)
    reference, reference_calls = _counted(_affine_family(n, seed))
    traj, flags, events = _scalar_sweep(reference, 0.0, 1.0, STEPS)
    # the same refinements run: 21 family calls per refined dip
    assert calls == reference_calls
    assert_array_equal(np.array([s.eigenvalues for s in result.steps]), traj)
    assert [s.flags for s in result.steps] == flags
    assert [(e.step, e.param, e.kind) for e in result.events] == events
    assert all(type(e.step) is int for e in result.events)


def test_reference_families_reach_every_flag_and_event():
    kinds, marks = set(), set()
    for n, seed in CASES:
        _, flags, events = _scalar_sweep(_affine_family(n, seed), 0.0, 1.0,
                                         STEPS)
        kinds.update(kind for _, _, kind in events)
        marks.update(f for fl in flags for f in fl)
    assert kinds == {"zero_crossing", "degeneracy", "ep_candidate"}
    assert {"Z", "I", "D"} <= marks
