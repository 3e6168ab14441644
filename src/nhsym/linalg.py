"""Dense complex linear algebra for small general (non-Hermitian) matrices.

Thin, deterministic wrappers around LAPACK through numpy: full
eigendecompositions with right eigenvectors (the left eigenvectors of H
are the right ones of H.T), SVD-based nullspaces, and eigenvalue
multiplicity counts around a target point.  Everything is dense and
deliberately capped at 256x256.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

MAX_DENSE = 256

# eigenpair backward-error bound, relative to ||H||_F
TOL_EIG = 1e-10

# floor of ep_locate's eigenvalue-cluster radius for multiplicity counting,
# relative to ||H||_F, and the gap within which sweep calls two eigenvalues
# degenerate, relative to its largest |eps|; looser than TOL_EIG because
# coalescing eigenvalues split as O(delta**(1/order)) around a defective
# point
TOL_CLUSTER = 1e-7


class ConvergenceError(RuntimeError):
    """Eigendecomposition failed to meet the residual bound."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (worst residual {residual:.3g})")
        self.residual = residual


class ClusterWarning(UserWarning):
    """A multiplicity count whose cluster is not cleanly separated."""


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition with right eigenvectors.

    ``values[mu]`` goes with ``right_vectors[:, mu]`` (columns,
    H @ psi = eps * psi), which is LAPACK ``zgeev``'s vector as returned:
    unit Euclidean norm, with its largest-magnitude entry real and
    positive.  ``residuals[mu]`` is that pair's backward-error norm
    ``||H @ psi - eps * psi||``.  Left eigenvectors
    (``phi.T @ H = eps * phi.T``) are the right vectors of ``eig(H.T)``.
    """

    values: np.ndarray
    right_vectors: np.ndarray
    residuals: np.ndarray


def _as_square(H, name: str = "H") -> np.ndarray:
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"{name} must be square, got shape {H.shape}")
    if H.shape[0] > MAX_DENSE:
        raise ValueError(f"{name} exceeds the dense cap ({H.shape[0]} > {MAX_DENSE})")
    if not np.isfinite(H).all():
        raise ValueError(f"{name} has non-finite entries")
    return H


def _require_tol(tol, name: str = "tol") -> None:
    """Reject a tolerance that is not a finite positive number."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"{name} must be finite and positive, got {tol!r}")


def _real(value, name: str) -> float:
    """``value`` as a float, refusing a complex value even with a zero
    imaginary part, as ``float`` refuses a Python complex; numpy would drop
    the imaginary part with a warning."""
    if np.iscomplexobj(value):
        raise ValueError(f"{name} must be real, got {value!r}")
    return float(value)


def _peaks(A: np.ndarray) -> np.ndarray:
    """Per matrix of A (one matrix, or a (k, n, n) stack): its largest real
    or imaginary part in magnitude, NaN if a part is NaN."""
    # one pass over the real and imaginary parts side by side
    parts = np.ascontiguousarray(A, dtype=complex).view(np.float64)
    return np.abs(parts).max(axis=(-2, -1), initial=0.0)


def _unit_factors(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix of A (one matrix, or a (k, n, n) stack): the power of two
    that brings its largest real or imaginary part into [0.5, 1), and
    whether the matrix is nonzero and finite, so that the power applies."""
    peak = _peaks(A)
    # clamped so the factor itself stays finite for a subnormal peak
    factor = np.ldexp(1.0, -np.maximum(np.frexp(peak)[1], -1021))
    return factor, (0 < peak) & (peak < np.inf)


def _unit_scaled(A: np.ndarray) -> np.ndarray:
    """A times the power of two that brings its largest real or imaginary
    part into [0.5, 1).  The rescaling is exact, and afterwards products
    and Frobenius norms of n x n matrices cannot overflow.  A zero or
    non-finite A is returned as is.  A (k, n, n) stack is scaled matrix
    by matrix."""
    factor, ok = _unit_factors(A)
    if ok.all():
        return A * factor[..., None, None]
    out = A.copy()
    out[ok] = A[ok] * factor[ok][:, None, None]
    return out


def _immutable_copy(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` that lives in an immutable ``bytes`` object, so that
    neither it, nor a view of it, nor any array reached through ``.base``
    can be made writeable."""
    return np.frombuffer(a.tobytes(), a.dtype).reshape(a.shape)


def _fro_norm(A: np.ndarray):
    """||A||_F of one matrix, or the norms of a (k, m, n) stack, each taken
    where needed on the matrix rescaled as :func:`_unit_scaled` does, so
    that no square overflows or underflows (``np.linalg.norm`` is inf
    above about 1e154).  Bit for bit ``np.linalg.norm`` of each matrix
    wherever no square overflows or underflows: each matrix is summed in its
    order, a dot product of the real parts plus one of the imaginary
    parts."""
    if A.ndim == 2:
        return float(_fro_norm(A[None])[0])
    # a matrix whose peak lies within 2**+-400 has a squared sum far from
    # overflow, and a square that underflows lies far below that sum's
    # rounding; only a stack with another nonzero peak is rescaled
    peak = _peaks(A)
    peak = peak[peak != 0]
    factor = 1.0
    if peak.size and not (2.0**-400 <= peak.min() and peak.max() <= 2.0**400):
        factor = _unit_factors(A)[0]
        A = _unit_scaled(A)
    # strided views of the parts, as np.linalg.norm takes them
    re, im = A.real.reshape(len(A), 1, -1), A.imag.reshape(len(A), 1, -1)
    sq = re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)
    return np.sqrt(sq[:, 0, 0]) / factor


def eig(H) -> EigenSystem:
    """Full eigendecomposition with right vectors.

    Parameters
    ----------
    H : array_like
        Square complex matrix, at most 256x256.

    Returns
    -------
    EigenSystem
        Eigenvalues sorted by real part, then imaginary part, ties kept in
        LAPACK order, with vectors permuted to match.  Each vector is
        ``zgeev``'s: unit 2-norm, largest-magnitude entry real and
        positive.  Every pair satisfies
        ``||H @ psi - eps * psi|| <= TOL_EIG * ||H||_F``.

    Raises
    ------
    ConvergenceError
        If the decomposition does not meet the residual bound; the worst
        residual achieved is carried on the exception.
    """
    H = _as_square(H)
    try:
        w, vr = np.linalg.eig(H)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}", np.inf) from exc
    # LAPACK may overflow to an infinite eigenvalue of a finite H, whose
    # residual would be NaN
    if not np.isfinite(w).all():
        raise ConvergenceError("eigendecomposition returned non-finite "
                               "eigenvalues", np.inf)
    # a stable sort, so ties keep LAPACK's order
    order = np.lexsort((w.imag, w.real))
    w, right = w[order], vr[:, order]
    # the residuals and ||H||_F are taken on the power-of-two rescaled H
    # and w, so that no square overflows or underflows; the rescaling and
    # its undoing are exact
    f = float(_unit_factors(H)[0])
    Hf = H * f
    residuals = np.linalg.norm(Hf @ right - right * (w * f), axis=0) / f
    worst = float(residuals.max()) if w.size else 0.0
    if not worst <= TOL_EIG * max(float(np.linalg.norm(Hf)) / f, 1e-300):
        raise ConvergenceError("eigenpair residual bound violated", worst)
    return EigenSystem(w, right, residuals)


def nullspace(M, tol: float) -> np.ndarray:
    """Orthonormal basis of the (approximate) nullspace of M.

    Parameters
    ----------
    M : array_like
        Any 2-d complex matrix (square or rectangular).
    tol : float
        Absolute threshold, finite and non-negative: directions whose
        singular value is at most ``tol`` count as null, so 0 keeps the
        exact nullspace.

    Returns
    -------
    numpy.ndarray
        Shape (n_cols, k) with orthonormal columns v, the right singular
        vectors of those directions, so that ``||M @ v|| <= tol`` up to
        rounding; k may be zero.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise ValueError(f"M must be 2-d, got shape {M.shape}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    if not np.all(np.isfinite(M)):
        raise ValueError("M has non-finite entries")
    _, s, vh = np.linalg.svd(M, full_matrices=True)
    rank = int(np.count_nonzero(s > tol))
    return vh[rank:].conj().T


def multiplicities(H, center: complex, tol: float) -> tuple[int, int]:
    """Algebraic and geometric multiplicity of an eigenvalue cluster.

    Parameters
    ----------
    H : array_like
        Square complex matrix.
    center : complex
        Finite point in the complex plane around which to count.
    tol : float
        Absolute cluster radius, finite and positive.  The same value
        thresholds the singular values of ``H - center * I`` for the
        geometric count.

    Returns
    -------
    (int, int)
        ``(algebraic, geometric)``: the number of eigenvalues within tol of
        center, and the number of singular values of ``H - center * I``
        at most tol.

    Warns
    -----
    ClusterWarning
        If another eigenvalue lies within twice the tolerance of center,
        so the cluster boundary is not cleanly separated.
    """
    H = _as_square(H)
    if not np.isfinite(center):
        raise ValueError(f"center must be finite, got {center!r}")
    _require_tol(tol)
    w = np.linalg.eigvals(H)
    dist = np.abs(w - center)
    algebraic = int(np.count_nonzero(dist <= tol))
    if np.any((dist > tol) & (dist <= 2 * tol)):
        warnings.warn(
            f"eigenvalue within 2*tol of the cluster at {center}: "
            "multiplicity counts may be unstable",
            ClusterWarning,
            stacklevel=2,
        )
    shifted = H - center * np.eye(H.shape[0])
    sigma = np.linalg.svd(shifted, compute_uv=False)
    geometric = int(np.count_nonzero(sigma <= tol))
    return algebraic, geometric
