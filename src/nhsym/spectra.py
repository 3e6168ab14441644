"""Spectral consequences of the symmetry relations.

Tools to classify a spectrum's reflection symmetries (through the origin,
the real axis, the imaginary axis), extract exact and imaginary-axis zero
modes, locate exceptional points in one-parameter families by a 41-point
scan of eigenvalue coalescence refined by golden-section search and state
their Jordan blocks, sweep a parameter while tracking eigenvalue
trajectories by continuity, and compare a mode's peak intensity on the B
and A sublattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import model as model_mod
from .linalg import (TOL_CLUSTER, _fro_norm, _real, _require_tol,
                     _unit_factors, eig, multiplicities)
from .symmetry import REFLECTIONS

# thresholds, absolute unless marked relative to ||H||_F; sweep multiplies
# ZERO_MODE_TOL and TOL_CLUSTER by its largest |eps| instead
CLASSIFY_TOL = 1e-8  # reflection defect of a held spectrum symmetry
ZERO_MODE_TOL = 1e-9  # zero_modes, relative
EP_PARAM_TOL = 1e-8  # ep_locate's final bracket width
EP_FOUND_TOL = 1e-3  # ep_locate's default found_tol
SWEEP_STEPS = 400
MAX_STEPS = 100_000
# eigenvalue-pair dip depth (relative to spectral radius) worth refining,
# the shrink factor a refined dip must beat, and the eigenvector overlap
# that separates coalescence from a symmetry-allowed crossing
EP_DIP = 0.05
EP_CONFIRM = 0.6
EP_OVERLAP = 0.9

def reflection_defect(values, axis: str) -> float:
    """Largest distance in the optimal pairing of an eigenvalue multiset,
    nonempty and finite, with its image under the reflection
    ``REFLECTIONS[axis]``."""
    if axis not in REFLECTIONS:
        raise ValueError(
            f"unknown axis {axis!r}; expected one of {tuple(REFLECTIONS)}")
    values = np.asarray(values, dtype=complex).ravel()
    if values.size == 0:
        raise ValueError("empty spectrum")
    if not np.isfinite(values).all():
        raise ValueError("values have non-finite entries")
    cost = np.abs(values[:, None] - REFLECTIONS[axis](values)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


@dataclass(frozen=True)
class SpectrumSymmetry:
    """Reflection defects of an eigenvalue multiset.

    Each field is the :func:`reflection_defect` of one ``REFLECTIONS``
    axis, in table order; a defect at most ``CLASSIFY_TOL`` means the
    symmetry holds.
    """

    origin: float
    real_axis: float
    imag_axis: float

    def held(self) -> tuple[str, ...]:
        defects = (self.origin, self.real_axis, self.imag_axis)
        return tuple(axis for axis, defect in zip(REFLECTIONS, defects)
                     if defect <= CLASSIFY_TOL)


def classify_spectrum(values) -> SpectrumSymmetry:
    """Measure how close a multiset of eigenvalues is to each reflection
    symmetry, using an optimal pairing between the set and its image;
    :meth:`SpectrumSymmetry.held` judges the defects by ``CLASSIFY_TOL``."""
    return SpectrumSymmetry(
        *(reflection_defect(values, axis) for axis in REFLECTIONS))


@dataclass(frozen=True)
class ZeroMode:
    """An eigenpair pinned to zero or to the imaginary axis.

    ``kind`` is ``"zero"`` for |eps| below tolerance and ``"imaginary"``
    for a nonzero eigenvalue with vanishing real part (its own image under
    the particle-hole reflection).
    """

    value: complex
    vector: np.ndarray
    kind: str


def zero_modes(H) -> list[ZeroMode]:
    """Eigenpairs at zero or on the imaginary axis, within
    ``ZERO_MODE_TOL * ||H||_F``."""
    H = np.asarray(H, dtype=complex)
    system = eig(H)
    # the eigenvalues are compared with ||H||_F on H rescaled by a power of
    # two, exactly, so that the norm cannot overflow near the float limit
    f = float(_unit_factors(H)[0])
    tol = ZERO_MODE_TOL * _fro_norm(H * f)
    out = []
    for idx, value in enumerate(system.values):
        value = complex(value)
        if abs(value * f) <= tol:
            kind = "zero"
        elif abs(value.real * f) <= tol:
            kind = "imaginary"
        else:
            continue
        out.append(ZeroMode(value, system.right_vectors[:, idx], kind))
    return out


@dataclass(frozen=True)
class EPReport:
    """Result of an exceptional-point search.

    ``blocks`` are the Jordan block sizes of the located cluster in
    descending order, one per geometric count and summing to the algebraic
    one, and ``order`` is the largest; ``spread`` is the residual
    coalescence measure (second-smallest distance from the target) at the
    located parameter.  When nothing coalesces within ``found_tol``,
    ``found`` is False and only ``parameter`` (the best candidate) and
    ``spread`` are meaningful.
    """

    found: bool
    parameter: float
    value: complex | None
    algebraic: int
    geometric: int
    order: int
    spread: float
    blocks: tuple[int, ...]


def _jordan_blocks(A: np.ndarray, algebraic: int, geometric: int,
                   tol: float) -> tuple[int, ...]:
    """Jordan block sizes, in descending order, of the cluster of
    ``algebraic`` eigenvalues of A near 0 with ``geometric`` independent
    eigenvectors.

    A staircase reduction (Kublanovskaya; Kagstrom and Ruhe, ACM TOMS 6(3),
    1980) restricted to the cluster's invariant subspace, the
    ``algebraic`` smallest right singular directions of A^algebraic.  Step
    k counts the singular values at most ``tol`` of the restricted map as
    the k-th Weyr number, the growth of the nullity of A^k, and deflates
    that many directions.  The first count is ``geometric`` and each count
    lies between 1 and the one before, so the blocks always partition
    ``algebraic`` into ``geometric`` parts.
    """
    vh = np.linalg.svd(np.linalg.matrix_power(A, algebraic))[2]
    Q = vh[-algebraic:].conj().T
    T = Q.conj().T @ A @ Q
    weyr, count = [], geometric
    while T.size:
        _, s, vh = np.linalg.svd(T)
        if weyr:
            count = min(weyr[-1], int(np.count_nonzero(s <= tol)))
        count = max(1, min(count, len(T)))
        weyr.append(count)
        keep = vh[:len(T) - count].conj().T
        T = keep.conj().T @ T @ keep
    return tuple(sum(w >= j for w in weyr) for j in range(1, weyr[0] + 1))


def jordan2(delta: float) -> np.ndarray:
    """Two-level family [[0, 1], [delta, 0]] with a second-order
    exceptional point at delta = 0."""
    return np.array([[0.0, 1.0], [_real(delta, "delta"), 0.0]], dtype=complex)


def ep_locate(family: Callable[[float], np.ndarray], bracket,
              target: complex = 0j, found_tol: float = EP_FOUND_TOL,
              ) -> EPReport:
    """Locate a parameter where eigenvalues coalesce at ``target``.

    A 41-point scan over the bracket seeds a golden-section minimization of
    the second-smallest distance |eps - target| (second-smallest so that a
    symmetry-protected mode already sitting at the target does not mask the
    coalescence).  The parameter is refined to within ``EP_PARAM_TOL`` (or
    to adjacent floats); the point counts as found when the minimized
    distance is at most ``found_tol``, finite and positive.  Multiplicities
    and Jordan blocks are then measured with a cluster radius of five
    times the residual spread, floored at ``TOL_CLUSTER * ||H||_F``; a
    radius beyond the float range is refused.
    """
    _require_tol(found_tol, "found_tol")
    if not np.isfinite(target):
        raise ValueError(f"target must be finite, got {target!r}")
    a, b = _real(bracket[0], "bracket"), _real(bracket[1], "bracket")
    if not np.isfinite(b - a):
        raise ValueError(f"bracket ({a}, {b}) must have finite ends and width")
    if not a < b:
        raise ValueError(f"bracket must satisfy lo < hi, got ({a}, {b})")

    def spread(p: float) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        H = np.asarray(family(p), dtype=complex)
        vals = eig(H).values
        if vals.size < 2:
            raise ValueError("family must have at least two eigenvalues")
        # a distance beyond the float range is inf: no coalescence there
        with np.errstate(over="ignore"):
            dist = np.abs(vals - target)
        return float(np.partition(dist, 1)[1]), H, vals, dist

    grid = np.linspace(a, b, 41)
    coarse = [spread(p)[0] for p in grid]
    k = int(np.argmin(coarse))
    lo = float(grid[max(k - 1, 0)])
    hi = float(grid[min(k + 1, grid.size - 1)])

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = spread(x1)[0], spread(x2)[0]
    while hi - lo > EP_PARAM_TOL:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            if not lo < x1 < hi:
                break
            f1 = spread(x1)[0]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            if not lo < x2 < hi:
                break
            f2 = spread(x2)[0]
    # halved first, so that the sum cannot overflow near the float limit
    p_hat = float(lo / 2.0 + hi / 2.0)
    s_hat, H, vals, dist = spread(p_hat)
    if s_hat > found_tol:
        return EPReport(False, p_hat, None, 0, 0, 0, s_hat, ())

    # the norm, the cluster's mean and the counts are taken on H and its
    # eigenvalues rescaled by a power of two, exactly, so that none of them
    # overflows near the float limit; the cluster holds at least the two
    # eigenvalues nearest the target, whose distances are at most s_hat
    f = float(_unit_factors(H)[0])
    Hf = H * f
    radius = max(5.0 * s_hat, TOL_CLUSTER * _fro_norm(Hf) / f)
    if radius * f == np.inf:
        raise ValueError(f"the cluster radius, 5 times the spread "
                         f"{s_hat:.3e}, overflows")
    mean = (vals[dist <= radius] * f).mean()
    value = complex(mean.real / f, mean.imag / f)
    # a zero radius means H = 0 and every eigenvalue exactly at the target
    if radius:
        alg, geo = multiplicities(Hf, mean, tol=radius * f)
        blocks = _jordan_blocks(Hf - mean * np.eye(len(Hf)), alg, geo,
                                radius * f)
    else:
        alg = geo = vals.size
        blocks = (1,) * alg
    return EPReport(True, p_hat, value, alg, geo, blocks[0], s_hat, blocks)


@dataclass(frozen=True)
class SweepStep:
    value: float
    eigenvalues: np.ndarray
    flags: tuple[str, ...]


@dataclass(frozen=True)
class SweepEvent:
    step: int
    param: float
    kind: str


@dataclass(frozen=True)
class SweepResult:
    """Eigenvalue trajectories over a parameter range.

    ``steps`` hold the parameter value, the eigenvalues reordered so mode
    identity is continuous from step to step, and per-mode flags (``Z``
    at zero, ``I`` on the imaginary axis, ``D`` near-degenerate; within
    ``ZERO_MODE_TOL``, ``ZERO_MODE_TOL`` and ``TOL_CLUSTER`` times the
    largest |eps| of the sweep).
    ``events`` mark steps where the zero-mode count changes
    (``zero_crossing``), the near-degenerate count changes
    (``degeneracy``), or a pair of trajectories dips toward coalescence
    and a tenfold-refined scan confirms the dip deepens
    (``ep_candidate``).
    """

    steps: tuple[SweepStep, ...]
    events: tuple[SweepEvent, ...]


def _origin_distance(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Distance from the origin to each segment from ``z1`` to ``z2``,
    elementwise over complex arrays of one shape."""
    dz = z2 - z1
    length2 = np.abs(dz) ** 2
    t = np.divide(-np.real(np.conj(dz) * z1), length2,
                  out=np.zeros_like(length2), where=length2 != 0)
    return np.abs(z1 + np.clip(t, 0.0, 1.0) * dz)


def sweep(family: Callable[[float], np.ndarray], lo: float, hi: float,
          n_steps: int = SWEEP_STEPS) -> SweepResult:
    """Track eigenvalues of ``family(p)`` across ``n_steps`` parameters
    (2 to ``MAX_STEPS``).

    Mode identity is kept by minimum-total-distance assignment between
    consecutive spectra.  Exactly degenerate trajectories stay flat and
    are reported through the ``D`` flag, not as coalescence events; an
    ``ep_candidate`` needs a strict local minimum of a pair distance that
    a refined scan between the neighboring steps deepens further.
    """
    if n_steps < 2:
        raise ValueError("n_steps must be at least 2")
    if n_steps > MAX_STEPS:
        raise ValueError(f"n_steps exceeds the limit ({n_steps} > {MAX_STEPS})")
    lo, hi = _real(lo, "lo"), _real(hi, "hi")
    if not np.isfinite(hi - lo):
        raise ValueError(f"sweep range ({lo}, {hi}) must have finite ends "
                         "and width")
    params = np.linspace(lo, hi, n_steps)
    rows = []
    prev = None
    for p in params:
        vals = eig(family(p)).values
        if prev is not None:
            # the rows of a square assignment come back as arange(n)
            cost = np.abs(prev[:, None] - vals[None, :])
            vals = vals[linear_sum_assignment(cost)[1]]
        rows.append(vals)
        prev = vals
    traj = np.array(rows)
    n = traj.shape[1]

    # per-step, per-mode flags as (steps, n) masks, relative to the largest
    # |eps| of the sweep; D one mode at a time, so no (steps, n, n) array
    # is formed
    mag = np.abs(traj)
    amax = max(float(mag.max()), 1e-300)
    zero_tol = ZERO_MODE_TOL * amax
    cluster_tol = TOL_CLUSTER * amax
    zero = mag <= zero_tol
    imag = np.abs(traj.real) <= zero_tol
    degen = np.empty_like(zero)
    for i in range(n):
        gap = np.abs(traj - traj[:, i:i + 1])
        gap[:, i] = np.inf
        degen[:, i] = gap.min(axis=1) <= cluster_tol
    flags = (np.where(zero, "Z", np.where(imag, "I", "")).astype(object)
             + np.where(degen, "D", "")).tolist()
    steps = tuple(SweepStep(float(p), v, tuple(f))
                  for p, v, f in zip(params, traj, flags))

    count_z = zero.sum(axis=1)
    count_d = degen.sum(axis=1)
    # an unpinned trajectory sweeping straight through the origin between
    # grid points never changes the zero count; the distances are taken on
    # the trajectories rescaled by a power of two, exactly, so that no
    # square overflows
    unit = _unit_factors(traj)[0]
    passes = ((_origin_distance(traj[:-1] * unit, traj[1:] * unit)
               <= zero_tol * unit)
              & ~(zero[:-1] & zero[1:]))
    found = {"zero_crossing": (count_z[1:] != count_z[:-1]) | passes.any(axis=1),
             "degeneracy": count_d[1:] != count_d[:-1]}
    events = [SweepEvent(int(k), float(params[k]), kind)
              for kind, hit in found.items() for k in np.flatnonzero(hit) + 1]

    threshold = EP_DIP * amax
    ep_steps = set()
    for i in range(n):
        for j in range(i + 1, n):
            d = np.abs(traj[:, i] - traj[:, j])
            dip = d[1:-1]
            # a pair already degenerate at the dip bottom is a crossing
            # or a protected doublet, reported through the D flag
            candidates = ((cluster_tol < dip) & (dip <= threshold)
                          & (dip < d[:-2]) & (dip < d[2:]))
            for k in (np.flatnonzero(candidates) + 1).tolist():
                if k in ep_steps:
                    continue
                mid = (traj[k, i] + traj[k, j]) / 2.0
                best = d[k]
                overlap = 0.0
                for q in np.linspace(params[k - 1], params[k + 1], 21):
                    system = eig(family(q))
                    order = np.argsort(np.abs(system.values - mid))
                    a, b = int(order[0]), int(order[1])
                    pair = abs(system.values[a] - system.values[b])
                    if pair < best:
                        best = float(pair)
                        overlap = abs(np.vdot(system.right_vectors[:, a],
                                              system.right_vectors[:, b]))
                if best <= EP_CONFIRM * d[k] and overlap >= EP_OVERLAP:
                    ep_steps.add(k)
                    events.append(SweepEvent(k, float(params[k]), "ep_candidate"))
    events.sort(key=lambda e: (e.step, e.kind))
    return SweepResult(steps, tuple(events))


def to_csv(result: SweepResult, path) -> None:
    """Write trajectories as ``param,mode_id,re,im,flags`` rows with full
    (17 significant digit) precision, so repeated runs are byte-identical."""
    lines = ["param,mode_id,re,im,flags"]
    for step in result.steps:
        for i, v in enumerate(step.eigenvalues):
            lines.append(
                f"{step.value:.17g},{i},{v.real:.17g},{v.imag:.17g},{step.flags[i]}"
            )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def intensity_ratio(psi, m) -> float:
    """Peak intensity on B sites over peak intensity on A sites.

    Returns inf when the mode has no weight on the A sublattice.
    """
    psi = np.asarray(psi, dtype=complex).ravel()
    if not np.isfinite(psi).all():
        raise ValueError("psi has non-finite entries")
    labels = np.array(m.sublattice)
    if psi.size != labels.size:
        raise ValueError(f"vector length {psi.size} != {m.n_sites} sites")
    if "A" not in labels or "B" not in labels:
        raise ValueError(f"model {m.name!r} has no A/B site labels")
    # the norm of the one-row matrix, which no square over- or underflows
    norm = _fro_norm(psi[None])
    if norm == 0:
        raise ValueError("zero vector")
    intensity = np.abs(psi / norm) ** 2
    peak_a = float(intensity[labels == "A"].max())
    peak_b = float(intensity[labels == "B"].max())
    if peak_a < 1e-14:
        return np.inf
    return peak_b / peak_a


@dataclass(frozen=True)
class Protocol:
    """A one-parameter figure protocol: which model family to sweep, over
    what range, and which spectrum reflections should hold at every step."""

    tag: str
    param_name: str
    lo: float
    hi: float
    model_at: Callable[[float], "model_mod.Model"]
    symmetric: tuple[str, ...]

    def matrix_at(self, p: float) -> np.ndarray:
        return model_mod.to_matrix(self.model_at(p))


# by tag; each family looks its builder up in model_mod when it runs
PROTOCOLS = {p.tag: p for p in (
    Protocol("1b", "tau", 0.0, 2.0,
             lambda t: model_mod.honeycomb_flake(1.0, t),
             tuple(REFLECTIONS)),
    Protocol("2b", "s", 0.0, 2.0,
             lambda s: model_mod.rt_wheel(0.75, 1.0 + 1j * s, 1.5 + 1j * s),
             tuple(REFLECTIONS)),
    Protocol("2c", "s", 0.0, 2.0,
             lambda s: model_mod.rt_wheel(0.75 - 0.1j, 1.0 + 1j * s,
                                          1.5 + 1j * s),
             ("origin",)),
    Protocol("4c", "alpha", 0.0, 2.0,
             lambda a: model_mod.pyramid(
                 "chiral", 1.0, 1.0, 0.8,
                 detunings=(((3, 5), a * np.exp(1j * np.pi / 4)),)),
             ("origin",)),
    Protocol("4d", "alpha", 0.0, 2.0,
             lambda a: model_mod.pyramid(
                 "chiral", 1.0, 1.0, 0.8,
                 detunings=(((3, 5), a * np.exp(1j * np.pi / 4)),
                            ((1, 2), a * np.exp(1j * np.pi / 3)))),
             ("origin",)),
    Protocol("5b", "delta", 0.0, float(abs(model_mod.CHAIN_COUPLING)),
             lambda d: model_mod.mirror_chain(d),
             tuple(REFLECTIONS)),
)}
