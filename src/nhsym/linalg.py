"""Dense complex linear algebra for small general (non-Hermitian) matrices.

Thin, deterministic wrappers around LAPACK through scipy: full
eigendecompositions with matched left and right vectors, SVD-based
nullspaces, and eigenvalue multiplicity counts around a target point.
Everything is dense and deliberately capped at 256x256.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

MAX_DENSE = 256

# eigenpair backward-error bound, relative to ||H||_F
TOL_EIG = 1e-10

# default eigenvalue-cluster tolerance for multiplicity counting, relative
# to ||H||_F; looser than TOL_EIG because coalescing eigenvalues split as
# O(delta**(1/order)) around a defective point
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
    """Eigendecomposition with matched left and right vectors.

    ``values[mu]`` goes with right vector ``right_vectors[:, mu]`` (columns,
    H @ psi = eps * psi) and left vector ``left_vectors[:, mu]`` satisfying
    ``left.T @ H = eps * left.T`` (equivalently H.T @ left = eps * left).
    Vectors have unit Euclidean norm; ``residuals[mu]`` is the larger of
    the right and left backward-error norms for that pair.
    """

    values: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
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


def _fix_phase(vectors: np.ndarray) -> np.ndarray:
    """Scale each column so its largest-magnitude entry is real positive."""
    if vectors.size == 0:
        return vectors.copy()
    pivots = vectors[np.argmax(np.abs(vectors), axis=0),
                     np.arange(vectors.shape[1])]
    size = np.abs(pivots)
    phases = np.divide(np.conj(pivots), size, out=np.ones_like(pivots),
                       where=size != 0)
    return vectors * phases


def eig(H, tol: float = TOL_EIG) -> EigenSystem:
    """Full eigendecomposition with left and right vectors.

    Parameters
    ----------
    H : array_like
        Square complex matrix, at most 256x256.
    tol : float
        Relative backward-error bound, finite and positive; every returned
        pair satisfies ``||H @ psi - eps * psi|| <= tol * ||H||_F`` and the
        transposed relation for the left vector.

    Returns
    -------
    EigenSystem
        Eigenvalues sorted by real part, then imaginary part, ties kept in
        LAPACK order, with vectors permuted to match.

    Raises
    ------
    ConvergenceError
        If the decomposition does not meet the residual bound; the worst
        residual achieved is carried on the exception.
    """
    _require_tol(tol)
    H = _as_square(H)
    n = H.shape[0]
    try:
        w, vl, vr = scipy.linalg.eig(H, left=True, right=True)
    except scipy.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}", np.inf) from exc
    # scipy's vl satisfies vl^H @ H = w * vl^H; conjugating gives vectors
    # of H.T with the same eigenvalue
    left = np.conj(vl)
    order = np.lexsort((np.arange(n), w.imag, w.real))
    w = w[order]
    right = _fix_phase(vr[:, order] / np.linalg.norm(vr[:, order], axis=0))
    left = _fix_phase(left[:, order] / np.linalg.norm(left[:, order], axis=0))
    scale = np.linalg.norm(H)
    res_r = np.linalg.norm(H @ right - right * w, axis=0)
    res_l = np.linalg.norm(H.T @ left - left * w, axis=0)
    residuals = np.maximum(res_r, res_l)
    worst = float(residuals.max()) if n else 0.0
    if worst > tol * max(scale, 1e-300):
        raise ConvergenceError("eigenpair residual bound violated", worst)
    return EigenSystem(w, right, left, residuals)


def nullspace(M, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis of the (approximate) nullspace of M.

    Parameters
    ----------
    M : array_like
        Any 2-d complex matrix (square or rectangular).
    tol : float
        Relative threshold, finite and positive: directions whose singular
        value is at most ``tol * sigma_max`` count as null.

    Returns
    -------
    numpy.ndarray
        Shape (n_cols, k) with orthonormal columns v satisfying
        ``||M @ v|| <= tol * ||M||``; k may be zero.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise ValueError(f"M must be 2-d, got shape {M.shape}")
    _require_tol(tol)
    if not np.all(np.isfinite(M)):
        raise ValueError("M has non-finite entries")
    n_cols = M.shape[1]
    _, s, vh = np.linalg.svd(M, full_matrices=True)
    if s.size == 0 or s[0] == 0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s > tol * s[0]))
    return vh[rank:].conj().T


def multiplicities(H, center: complex, tol: float | None = None) -> tuple[int, int]:
    """Algebraic and geometric multiplicity of an eigenvalue cluster.

    Parameters
    ----------
    H : array_like
        Square complex matrix.
    center : complex
        Point in the complex plane around which to count.
    tol : float, optional
        Absolute cluster radius, finite and positive.  Defaults to
        ``1e-7 * ||H||_F``.  The same value thresholds the singular values
        of ``H - center * I`` for the geometric count.

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
    scale = np.linalg.norm(H)
    if tol is None:
        tol = TOL_CLUSTER * max(scale, 1.0)
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
