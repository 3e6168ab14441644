"""Symmetry relations of non-Hermitian matrices: checkers and discovery.

Every relation kind is linear in the operator M: H M = M R(H), or
H M = M R(H)^T for the transposing kinds, where R is one of the spectral
``REFLECTIONS`` -H, conj(H) and -conj(H).  With M invertible, the same R
maps the spectrum of H onto itself.  Antilinear operators are represented
by their linear part, with the conjugation moved onto H.  One table,
``RELATIONS``, records each kind's reflection and transpose (T) with the
token model hints use for it and the relation name :func:`discover`
accepts:

======================  ==========  =  ==========  =====================
kind                    reflection  T  hint        discover name
======================  ==========  =  ==========  =====================
linear_anticommute      origin         chiral      chiral
antilinear_anticommute  imag           nhph        nhph
antilinear_commute      real           rt          bosonic
transpose_minus         origin      T  pseudo      pseudo_chiral
dagger_plus             real        T  pseudoH     pseudo_hermitian
dagger_minus            imag        T  antipseudo  anti_pseudo_hermitian
======================  ==========  =  ==========  =====================

The table gives :func:`check` its residual, :func:`named_operator` and
:func:`discover` their name lookups, and discovery both of its kernels.
The transpose and dagger relations are used in this inverse-free form, so
a singular candidate can still be evaluated when explicitly allowed.

Discovery is spectral where it can be.  For diagonalizable
H = V diag(lam) V^-1 the right factor diagonalizes as
R(H) = P diag(R(lam)) P^-1 (likewise its transpose), and with M = V Y P^-1
the relation reads Y_ij (lam_i - R(lam)_j) = 0.  The solutions are
spanned by one rank-one eigen-dyad per matched eigenvalue pair, found in
O(n^3) time.  The dyads are verified by a rigorous bound on their
residual, built from each eigenvector's backward error, so no dyad is
multiplied out.  A defective or badly conditioned H, and a caller-supplied
basis, take the dense kernel instead: the nullspace of the matrix whose
columns are the residual map applied to each basis element (by default
the n^2 unit matrices, an n^2 x n^2 matrix, hence capped at n = 32).

Alongside: :func:`product`, the paper's product rule read from the table:
for X of a non-transposing kind, X cx(Y) has the composition of X's and
Y's reflections and Y's transpose flag.  Also the symmetric/antisymmetric
split rule, and a 90-degree complex rotation that exchanges which relation
pair underlies a transpose-type symmetry.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from . import _records, clifford, model as model_mod
from .linalg import (MAX_DENSE, _as_square, _fro_norm, _immutable_copy,
                     _require_tol, _unit_factors, _unit_scaled, nullspace)

LINEAR_ANTICOMMUTE = "linear_anticommute"
ANTILINEAR_ANTICOMMUTE = "antilinear_anticommute"
ANTILINEAR_COMMUTE = "antilinear_commute"
TRANSPOSE_MINUS = "transpose_minus"
DAGGER_PLUS = "dagger_plus"
DAGGER_MINUS = "dagger_minus"


# the image of H, or of its spectrum, under each reflection
REFLECTIONS = {"origin": np.negative, "real": np.conj,
               "imag": lambda values: -np.conj(values)}


@dataclass(frozen=True)
class Relation:
    """One relation kind: ``H M = M R(H)``, or ``H M = M R(H)^T`` if
    ``transpose``, with ``R = REFLECTIONS[reflection]``; ``hint`` names it
    in model symmetry hints and ``discover_name`` in :func:`discover`."""

    hint: str
    discover_name: str
    reflection: str
    transpose: bool

    @property
    def conj(self) -> bool:
        """Whether R conjugates H, as for the antilinear and dagger kinds."""
        return self.reflection != "origin"

    def right(self, H: np.ndarray) -> np.ndarray:
        """The relation's right factor: R(H), or R(H)^T if ``transpose``."""
        R = REFLECTIONS[self.reflection](H)
        return R.T if self.transpose else R

    def residual(self, H: np.ndarray, M: np.ndarray) -> np.ndarray:
        """``H M - M B`` with B the right factor, for one operator or a
        stack."""
        return H @ M - M @ self.right(H)


RELATIONS = {
    LINEAR_ANTICOMMUTE: Relation("chiral", "chiral", "origin", False),
    ANTILINEAR_ANTICOMMUTE: Relation("nhph", "nhph", "imag", False),
    ANTILINEAR_COMMUTE: Relation("rt", "bosonic", "real", False),
    TRANSPOSE_MINUS: Relation("pseudo", "pseudo_chiral", "origin", True),
    DAGGER_PLUS: Relation("pseudoH", "pseudo_hermitian", "real", True),
    DAGGER_MINUS: Relation("antipseudo", "anti_pseudo_hermitian", "imag",
                           True),
}

KINDS = tuple(RELATIONS)

_HINT_KINDS = {rel.hint: kind for kind, rel in RELATIONS.items()}
_DISCOVER_KINDS = {rel.discover_name: kind for kind, rel in RELATIONS.items()}
DISCOVER_RELATIONS = tuple(sorted(_DISCOVER_KINDS))

COND_MAX = 1e8
PASS_TOL = 1e-10
# discover's default pairing gap and residual bound, relative to ||H||_F
DISCOVER_TOL = 1e-9

# eigenvector condition number above which discovery leaves the spectral
# path for the dense kernel: below it, computed eigenvalues err by at most
# about 1e6 * eps * ||H|| = 2e-10 ||H||, under discovery's default tol
SPECTRAL_COND_MAX = 1e6
# largest n the dense kernel takes without a caller basis: its matrix is
# n^2 x n^2, 16 MB of complex entries at n = 32
DENSE_KERNEL_MAX_N = 32
# the labels discover accepts, each to itself: the canonical generator
# products, strictly ascending tuples of int indices
_PRODUCTS = {p: p for p in clifford.PRODUCT_NAMES}


@dataclass(frozen=True, eq=False)
class SymOp:
    """A candidate symmetry operator: matrix, relation kind, readable label.

    Operators compare and hash by identity; compare ``matrix`` and
    ``kind`` to compare operators.  The matrix is kept as a read-only
    complex copy of the one passed; the operators :func:`discover`
    returns share one read-only stack instead, one matrix each.  Either
    way no array of the caller's is the operator's storage, and the
    matrix cannot be made writeable again.  It must not be zero: every
    relation holds for it, so it would pass any check.  Operators of
    transpose or dagger kind must be invertible (condition number at most
    ``COND_MAX``) unless constructed with ``allow_singular=True``, in
    which case only the inverse-free form of their relation is
    meaningful.
    """

    matrix: np.ndarray
    kind: str
    label: str = ""
    allow_singular: bool = False

    def __post_init__(self):
        # a one-matrix stack of its own, so that the caller cannot change
        # the checked operator
        stack = _operator_storage(
            np.asarray(self.matrix, dtype=complex)[None], self.kind,
            self.allow_singular)
        object.__setattr__(self, "matrix", stack[0])


def _operator_storage(mats: np.ndarray, kind: str,
                      allow_singular: bool) -> np.ndarray:
    """An immutable copy of the complex stack ``mats``, once each of its
    matrices has passed :class:`SymOp`'s checks for ``kind``: neither it
    nor a matrix taken from it can be made writeable again."""
    if kind not in KINDS:
        raise ValueError(f"unknown relation kind {kind!r}")
    shape = mats.shape[1:]
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"operator must be square, got shape {shape}")
    if shape[0] > MAX_DENSE:
        raise ValueError(
            f"operator exceeds the dense cap ({shape[0]} > {MAX_DENSE})")
    if not np.isfinite(mats).all():
        raise ValueError("operator has non-finite entries")
    if not mats.any(axis=(1, 2)).all():
        raise ValueError("operator is zero, so every relation holds for it")
    # the transpose and dagger relations conjugate by the inverse
    if RELATIONS[kind].transpose and not allow_singular:
        cond = np.linalg.cond(mats)
        bad = np.flatnonzero(~(cond <= COND_MAX))
        if bad.size:
            raise ValueError(
                f"{kind} operator is singular or badly conditioned "
                f"(cond {cond[bad[0]]:.3g}); pass allow_singular=True to keep it"
            )
    return _immutable_copy(mats)


def _stacked_operators(mats: np.ndarray, kind: str,
                       labels) -> list[SymOp]:
    """Discovery's solutions, the complex (k, n, n) stack ``mats`` it has
    just built, as k operators of ``kind`` with these labels, allowed to
    be singular.  The stack is checked and copied once, into read-only
    storage that every operator shares, so no matrix is checked or copied
    on its own."""
    ops = []
    for M, label in zip(_operator_storage(mats, kind, True), labels):
        op = object.__new__(SymOp)
        # SymOp's own fields, as __init__ would set them
        vars(op).update(matrix=M, kind=kind, label=label,
                        allow_singular=True)
        ops.append(op)
    return ops


def _residuals(H: np.ndarray, kind: str, mats: np.ndarray) -> np.ndarray:
    """:func:`check`'s residual of every matrix of the nonempty (k, n, n)
    stack ``mats`` as an operator of ``kind``.  H must already be
    :func:`_unit_scaled`.  Not finite where H has non-finite entries."""
    M = _unit_scaled(mats)
    k = len(M)
    # the norms of H, of each operator and of each residual in one pass
    norms = _fro_norm(np.concatenate(
        (H[None], M, RELATIONS[kind].residual(H, M))))
    denom = norms[0] * norms[1:k + 1]
    return np.divide(norms[k + 1:], denom, out=np.zeros(k),
                     where=denom != 0)


def check(H, op: SymOp) -> float:
    """Residual of the operator's defining relation, scale-normalized.

    Returns ``||R|| / (||H|| * ||op||)`` (Frobenius norms) where R is the
    left side of the relation in the module docstring for ``op.kind``.
    H and the operator are first rescaled by powers of two to unit-sized
    entries; the ratio is unchanged, but no product or norm overflows.  A
    residual at most ``PASS_TOL`` counts as satisfied; the number is
    returned, not thresholded.

    Raises
    ------
    ValueError
        On a shape mismatch, or when the residual is not finite (H has
        non-finite entries).
    """
    H = np.asarray(H, dtype=complex)
    M = op.matrix
    if H.shape != M.shape:
        raise ValueError(f"dimension mismatch: H {H.shape} vs operator {M.shape}")
    r = float(_residuals(_unit_scaled(H), op.kind, M[None])[0])
    if not np.isfinite(r):
        raise ValueError(f"{op.kind} residual is not finite; "
                         "H has non-finite entries")
    return r


def product(x: SymOp, y: SymOp) -> SymOp:
    """The product rule: ``X @ cx(Y)``, of the kind ``RELATIONS`` gives.

    For x of a non-transposing kind, ``H X = X Rx(H)`` and ``H Y = Y B``
    give ``H P = P Rx(B)``, with cx conjugating exactly when Rx does.  Two
    distinct reflections compose to the third (with the identity they form
    the Klein four-group), and P transposes as y does.  A transposing x,
    and two equal reflections (P would commute with H), are refused.  P
    may be singular if x or y may; callers verify it with :func:`check`.
    """
    rx, ry = RELATIONS[x.kind], RELATIONS[y.kind]
    if rx.transpose or rx.reflection == ry.reflection:
        raise ValueError(f"no product rule for {x.kind} times {y.kind}: x "
                         "must not transpose, the reflections must differ")
    X, Y = x.matrix, y.matrix
    if X.shape != Y.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {Y.shape}")
    reflection = ({*REFLECTIONS} - {rx.reflection, ry.reflection}).pop()
    kind = next(k for k, rel in RELATIONS.items() if
                (rel.reflection, rel.transpose) == (reflection, ry.transpose))
    return SymOp(X @ (Y.conj() if rx.conj else Y), kind,
                 allow_singular=x.allow_singular or y.allow_singular)


def sa_split(H) -> tuple[np.ndarray, np.ndarray]:
    """Split H into its symmetric and antisymmetric parts, H = S + A."""
    H = _as_square(H)
    S = (H + H.T) / 2
    A = (H - H.T) / 2
    return S, A


@dataclass(frozen=True)
class SAResult:
    """Outcome of the symmetric/antisymmetric construction.

    When the two parts anticommute, ``eta`` is the antisymmetric part
    (transpose-minus kind) and ``chiral`` is a power-of-two multiple of the
    product S @ A (linear-anticommute kind), or None where that product is
    zero; otherwise both are None and ``anticommutator_norm`` reports
    ||{A, S}||.
    """

    eta: SymOp | None
    chiral: SymOp | None
    anticommutator_norm: float


def pseudo_from_sa(H) -> SAResult:
    """Build symmetry operators from the symmetric/antisymmetric split.

    If S and A anticommute (within ``PASS_TOL * ||A|| * ||S||``), the
    antisymmetric part itself satisfies the transpose-minus relation and
    S @ A anticommutes with H; both are verified before being returned.
    The chiral matrix is f**2 * (S @ A), formed from the parts of f * H,
    f the power of two that brings H's largest real or imaginary part into
    [0.5, 1), so that it neither overflows nor underflows at any scale of H.
    A singular antisymmetric part is returned with a warning and
    ``allow_singular`` set, its relation still checked in inverse-free form.
    """
    H = np.asarray(H, dtype=complex)
    S, A = sa_split(H)
    if not A.any():
        return SAResult(None, None, 0.0)
    # the parts of the power-of-two rescaled H, so that no product
    # overflows or underflows; the exact rescaling is undone for the
    # reported norm
    f = float(_unit_factors(H)[0])
    As, Ss = A * f, S * f
    norm_a, norm_s = _fro_norm(As), _fro_norm(Ss)
    anti_unit = _fro_norm(As @ Ss + Ss @ As)
    anti = anti_unit / f / f
    if not anti_unit <= PASS_TOL * max(norm_a * norm_s, 1e-300):
        return SAResult(None, None, anti)
    singular = not np.linalg.cond(A) <= COND_MAX
    if singular:
        warnings.warn(
            "antisymmetric part is singular; transpose relation checked in "
            "inverse-free form only",
            UserWarning,
            stacklevel=2,
        )
    eta = SymOp(A, TRANSPOSE_MINUS, label="antisymmetric part",
                allow_singular=singular)
    # with X = {S, A}: check's residual of A is ||X|| / (||H|| ||A||), and
    # as H (S A) + (S A) H = X A + S X, that of P = S A is at most
    # ||X|| (||A|| + ||S||) / (||H|| ||P||); both scale-free, so taken
    # from the rescaled parts
    norm_h = _fro_norm(H * f)
    bounds = [(eta, anti_unit, norm_h * norm_a)]
    P = Ss @ As
    chiral = None
    if P.any():
        chiral = SymOp(P, LINEAR_ANTICOMMUTE, label="S @ A product")
        bounds.append((chiral, anti_unit * (norm_a + norm_s),
                       norm_h * _fro_norm(P)))
    for op, num, den in bounds:
        r = check(H, op)
        if not r <= max(10 * num / max(den, 1e-300), PASS_TOL):
            raise RuntimeError(f"split operator failed verification ({r:.3g})")
    return SAResult(eta, chiral, anti)


def discover(H, relation: str, basis=None, labels=None,
             tol: float = DISCOVER_TOL) -> list[SymOp]:
    """Find a basis of every operator satisfying a relation with H.

    Without a basis the search is spectral: H is diagonalized, every
    eigenvalue pair (i, j) with ``|lam_i - R(lam)_j| <= tol * ||H||_F``
    contributes the eigen-dyad ``v_i u_j^T`` (see the module docstring),
    and for such a dyad that gap over ``||H||_F`` is exactly its
    :func:`check` residual.  In floating point each dyad is verified by a
    rigorous upper bound on that residual: the gap plus the backward errors
    of ``v_i`` and ``u_j``, over ``||H||_F``.  When the eigenvector matrix
    is badly conditioned (cond above ``SPECTRAL_COND_MAX``, as near an
    exceptional point) or a dyad's bound exceeds ``tol``, the dense kernel
    over the n^2 unit matrices runs instead; it needs an n^2 x n^2 matrix
    and is refused above ``DENSE_KERNEL_MAX_N``.  With a basis, the dense
    kernel runs over the basis, restricting the search to its span.  The
    dense kernel keeps the singular directions of its residual map whose
    singular value is at most ``tol * ||H||_F`` times the smallest singular
    value of the basis, which bounds each kept combination's residual by
    ``tol``; its dimension only grows with ``tol``.  On either path every
    returned operator is verified: its residual is at most ``tol``.

    Parameters
    ----------
    H : array_like
        Square complex matrix with finite entries, at most 256x256.
    relation : str
        One of ``DISCOVER_RELATIONS``, the discover names of ``RELATIONS``.
    basis : sequence of array_like, optional
        Linearly independent matrices with finite entries spanning the
        search space, at least one; defaults to the full matrix space.
        Independence is judged relative to the basis scale (every singular
        value of the stacked elements above ``1e-10 * max(n, k)`` times the
        largest), so a rescaled basis gets the same verdict, and it is
        proved once per distinct basis content: passing the same matrices
        again reuses the verdict.
    labels : sequence of index tuples, optional
        One generator product per basis element, only with a basis: the
        distinct canonical products, strictly ascending tuples of
        ``clifford.INDICES``, as :func:`clifford.basis16_labels` gives
        them.  When given, each solution's label is its expansion as a
        generator expression.
    tol : float
        Finite and positive: the bound on every returned operator's
        residual, which is also the pairing gap above, ``DISCOVER_TOL`` by
        default.

    Returns
    -------
    list of SymOp
        A basis of the solution space, each scaled so its largest
        coefficient (its largest entry, without a basis) is 1; the length
        is the space's dimension.  The operators share one read-only
        (k, n, n) stack, each ``matrix`` a view of its own entry.

    Raises
    ------
    ValueError
        On bad input, when the dense kernel would be needed above its
        size limit, or when the solutions would hold more than
        ``MAX_DENSE**3`` entries in all.
    RuntimeError
        When a solution of the dense kernel fails its verification.
    """
    if relation not in _DISCOVER_KINDS:
        raise ValueError(f"unknown relation {relation!r}; "
                         f"expected one of {list(DISCOVER_RELATIONS)}")
    _require_tol(tol)
    kind = _DISCOVER_KINDS[relation]
    # the solution space does not change under a positive rescaling of H,
    # and a power of two is exact
    H = _unit_scaled(_as_square(H))
    n = H.shape[0]
    if labels is not None:
        if (basis is None or not hasattr(labels, "__len__")
                or len(labels) != len(basis)):
            raise ValueError("labels need a basis, one label per element")
        # a label names its element's coefficient as printed, so a product
        # in another factor order would print it with the wrong sign; an
        # index such as 0.0 or np.int64(0) is read as the int it equals
        try:
            labels = tuple(_PRODUCTS.get(tuple(l)) for l in labels)
        except TypeError:  # a label that is no sequence of hashable indices
            labels = (None,)
        if None in labels or len(set(labels)) < len(labels):
            raise ValueError("labels must be distinct canonical products, "
                             "strictly ascending tuples of clifford.INDICES")
    if basis is not None:
        mats = [np.asarray(b, dtype=complex) for b in basis]
        if not mats:
            raise ValueError("basis is empty")
        if any(b.shape != (n, n) for b in mats):
            raise ValueError("basis elements must match H's shape")
        mats = np.array(mats)
        # the stack times one power of two, so that no singular value or
        # product below overflows; the solutions' coefficients stay the
        # same.  The power does not apply to a zero stack, which is
        # dependent, or to a non-finite one
        factor, ok = _unit_factors(mats.reshape(len(mats), -1))
        if not ok and mats.any():
            raise ValueError("basis elements have non-finite entries")
        scaled = mats * factor
        sigma_min = _independent(scaled.shape, scaled.tobytes())
        if not sigma_min:
            raise ValueError("basis elements are linearly dependent")
        return _dense_kernel(H, kind, mats, scaled, sigma_min, labels, tol)
    ops = _eigen_dyads(H, kind, tol)
    if ops is not None:
        return ops
    if n > DENSE_KERNEL_MAX_N:
        raise ValueError(
            f"H is defective or too close to it for spectral discovery, and "
            f"the dense kernel is limited to n <= {DENSE_KERNEL_MAX_N} "
            f"(n = {n})"
        )
    units = np.eye(n * n).reshape(n * n, n, n).transpose(0, 2, 1)
    # orthonormal when flattened: every singular value is 1
    return _dense_kernel(H, kind, units, units, 1.0, None, tol)


# the keys hold each basis's bytes, so only a few are kept
@functools.lru_cache(maxsize=4)
def _independent(shape: tuple, data: bytes) -> float:
    """The smallest singular value of the (k, n, n) stack of complex
    matrices with these bytes, flattened to k rows, when the stack is
    linearly independent, and 0 when it is not.  Independent means k
    singular values, each above ``1e-10 * max(n, k)`` times the largest.
    Memoized by content, so a basis is proved once however often it is
    passed."""
    k, n = shape[0], shape[-1]
    flat = np.frombuffer(data, dtype=complex).reshape(k, -1)
    sigma = np.linalg.svd(flat, compute_uv=False)
    if sigma.size == k and sigma[-1] > 1e-10 * max(n, k) * sigma[0]:
        return float(sigma[-1])
    return 0.0


def _eigen_dyads(H, kind: str, tol: float) -> list[SymOp] | None:
    """Spectral solution basis, or None when the dense kernel must decide."""
    rel = RELATIONS[kind]
    lam, V = np.linalg.eig(H)
    sigma = np.linalg.svd(V, compute_uv=False)
    if sigma.size and not sigma[-1] * SPECTRAL_COND_MAX >= sigma[0]:
        return None
    gap = np.abs(lam[:, None] - REFLECTIONS[rel.reflection](lam)[None, :])
    i, j = np.nonzero(gap <= tol * _fro_norm(H))
    if not i.size:
        return []
    # one n x n dyad per pair: up to n^4 entries, 68.7 GB at n = 256
    if i.size * H.size > MAX_DENSE**3:
        raise ValueError(
            f"the solution space has {i.size} operators of {H.shape[0]}x"
            f"{H.shape[0]}, {i.size * H.size} entries, above the limit of "
            f"{MAX_DENSE**3}")
    # rows u_j with R(H) (transposed) = U^-1 diag(R(lam)) U
    U = V.T if rel.transpose else np.linalg.inv(V)
    if rel.conj:
        U = U.conj()
    if not np.all(_dyad_bounds(H, rel, lam, V, U, i, j) <= tol):
        return None
    # both pivots become 1, so each dyad's largest entry is 1
    X = (_pivot_normalized(V.T[i])[:, :, None]
         * _pivot_normalized(U[j])[:, None, :])
    return _stacked_operators(X, kind, [""] * len(X))


def _dyad_bounds(H, rel: Relation, lam, V, U, i, j) -> np.ndarray:
    """Upper bounds on :func:`check`'s residual of the eigen-dyads
    ``V[:, i] U[j]``, from backward errors of each eigenvector.

    With a = V[:, i], b = U[j] and B the relation's right factor, let
    e_a = H a - lam_i a and e_b = B^T b - R(lam)_j b.  Then
    H ab^T - ab^T B = (lam_i - R(lam)_j) ab^T + e_a b^T - a e_b^T, and as
    ||ab^T||_F = ||a|| ||b||, the residual is at most
    (|lam_i - R(lam)_j| + ||e_a|| / ||a|| + ||e_b|| / ||b||) / ||H||_F.
    Two n x n products serve every pair; no dyad is formed.
    """
    mu = REFLECTIONS[rel.reflection](lam)
    back_v = (np.linalg.norm(H @ V - V * lam, axis=0)
              / np.linalg.norm(V, axis=0))
    back_u = (np.linalg.norm(U @ rel.right(H) - mu[:, None] * U, axis=1)
              / np.linalg.norm(U, axis=1))
    bound = np.abs(lam[i] - mu[j]) + back_v[i] + back_u[j]
    norm_h = _fro_norm(H)
    # for H = 0 every term is 0, and so is check's residual
    return bound / norm_h if norm_h else bound


def _pivot_normalized(rows: np.ndarray) -> np.ndarray:
    """Each row divided by its first largest-magnitude entry."""
    pivots = rows[np.arange(len(rows)), np.argmax(np.abs(rows), axis=1)]
    return rows / pivots[:, None]


def _dense_kernel(H, kind: str, mats: np.ndarray, scaled: np.ndarray,
                  sigma_min: float, labels, tol: float) -> list[SymOp]:
    """The solutions in the span of the (k, n, n) stack ``mats`` whose
    residual is provably at most ``tol``.  H must already be
    :func:`_unit_scaled`.

    ``scaled`` is ``mats`` times one power of two, and ``sigma_min`` the
    smallest singular value of ``scaled`` flattened to k rows.  Let A be
    the n^2 x k matrix whose column a is the column-stacked residual of
    ``scaled[a]``.  A unit coefficient vector c gives the operator
    ``sum_a c_a scaled[a]``, of Frobenius norm at least ``sigma_min``, so
    its residual is at most ``||A c|| / (||H||_F sigma_min)``.  The right
    singular vectors of A with singular value at most
    ``tol ||H||_F sigma_min`` therefore span combinations that each pass;
    for H = 0 that bound is 0, and A = 0 keeps every combination, each
    with residual 0.  Each solution is the sum over ``mats`` with its
    coefficients: a uniform rescaling leaves them as they are."""
    k = len(mats)
    R = RELATIONS[kind].residual(H, scaled)
    # no square of the unit-scaled H overflows, so this is _fro_norm(H) bit
    # for bit, without its rescaling pass
    bound = tol * np.linalg.norm(H) * sigma_min
    coeffs = _pivot_normalized(
        nullspace(R.transpose(0, 2, 1).reshape(k, -1).T, bound).T)
    if not len(coeffs):
        return []
    # each solution a sum over the basis in basis order, with no
    # (solutions, k, n, n) temporary; optimize would hand it to BLAS,
    # which regroups the additions.  Every product with a basis16 or
    # unit-matrix element is exact, so those sums equal a per-solution
    # loop bit for bit; an inexact complex product may round otherwise
    sols = np.einsum("sa,aij->sij", coeffs, mats)
    r = _residuals(H, kind, sols)
    passed = r <= tol
    if not passed.all():
        raise RuntimeError(f"discovered operator fails its relation "
                           f"({r[~passed][0]:.3g} > {tol:g})")
    return _stacked_operators(
        sols, kind, [_coefficient_label(c, labels) for c in coeffs])


def _coefficient_label(c, labels) -> str:
    if labels is None:
        return ""
    cutoff = 1e-12 * float(np.abs(c).max())
    # abs of each Python complex, as the scalar abs that the filter has
    # always used: np.abs of the array can differ in the last bit; + 0j
    # turns a -0.0 part into +0.0.  The labels are distinct, so the sort
    # never compares coefficients
    terms = sorted((len(l), l, x + 0j) for l, x in zip(labels, c.tolist())
                   if abs(x) > cutoff)
    return clifford.format_expr(
        clifford.GammaExpr(tuple((l, x) for _, l, x in terms)))


def named_operator(m, hint: str) -> SymOp:
    """Resolve a model's symmetry hint string to a concrete operator.

    Hints have the form ``kind:opspec`` with kind one of ``chiral``,
    ``nhph``, ``rt``, ``pseudo``, ``pseudoH``, ``antipseudo``.  The opspec
    is either a ``*``-joined product of lattice tokens (``sublattice``,
    ``mirror1``..``mirror3``, ``parity``) or, for 4-site models, a
    generator expression.
    """
    kind_token, sep, opspec = hint.partition(":")
    if not sep or kind_token not in _HINT_KINDS:
        raise ValueError(f"bad hint {hint!r}")
    kind = _HINT_KINDS[kind_token]
    tokens = [t.strip() for t in opspec.split("*")]
    if all(t in model_mod.LATTICE_TOKENS for t in tokens):
        M = np.eye(m.n_sites, dtype=complex)
        for t in tokens:
            M = M @ model_mod.lattice_operator(m, t)
    else:
        if m.n_sites != 4:
            raise ValueError(
                f"generator-expression hint on a {m.n_sites}-site model: {hint!r}"
            )
        M = clifford.expr_to_matrix(opspec)
    return SymOp(M, kind, label=hint)


def hidden_nhph(beta: complex, g1: complex, g2: complex) -> SymOp:
    """Antilinear anticommuting operator of the wheel model, real beta only.

    The conjugation part is the two-site rotation times
    ``Re(g2)*g1 - i*Im(g1)*g3``.  A complex beta lifts both the
    rotation-conjugation symmetry and this one, so it is refused.  The
    construction is verified against the wheel matrix before returning,
    and the product of the rotation-conjugation with this operator is
    confirmed to be a scalar multiple of the wheel's anticommuting
    operator ``Re(g2)*g1 + i*Im(g1)*g3``; both checks pass at ``PASS_TOL``.
    """
    beta, g1, g2 = complex(beta), complex(g1), complex(g2)
    if beta.imag != 0:
        raise ValueError(
            "complex beta lifts the rotation-conjugation symmetry; "
            "no such operator exists"
        )
    rot2 = 1j * clifford.gamma((2, 3))  # two-site rotation, a real permutation
    core = g2.real * clifford.gamma(1) - 1j * g1.imag * clifford.gamma(3)
    C = rot2 @ core
    if not np.any(C):
        raise ValueError("degenerate parameters: Re(g2) and Im(g1) both zero")
    op = SymOp(C, ANTILINEAR_ANTICOMMUTE, label="rotation-paired conjugation")
    H = model_mod.to_matrix(model_mod.rt_wheel(beta, g1, g2))
    r = check(H, op)
    if not r <= PASS_TOL:
        raise RuntimeError(f"construction failed verification ({r:.3g})")
    # both rescaled by powers of two, so that no inner product overflows
    pi = _unit_scaled(product(SymOp(rot2, ANTILINEAR_COMMUTE), op).matrix)
    pi_expected = _unit_scaled(
        g2.real * clifford.gamma(1) + 1j * g1.imag * clifford.gamma(3))
    scale = np.vdot(pi_expected, pi) / np.vdot(pi_expected, pi_expected)
    if not _fro_norm(pi - scale * pi_expected) <= PASS_TOL * _fro_norm(pi):
        raise RuntimeError("rotation product does not match the linear operator")
    return op


def wick_rotate(H) -> np.ndarray:
    """Multiply by -i, turning dagger-minus plus antilinear-commuting
    symmetries of H into dagger-plus plus antilinear-anticommuting ones of
    the result (the transpose-minus operator is shared by both)."""
    return -1j * np.asarray(H, dtype=complex)


@dataclass(frozen=True)
class PseudoReport:
    """Derived-operator residuals for a verified transpose-minus operator.

    ``products`` has one entry per supplied commuting matrix: the
    normalized commutator with H, and the relation residual of the product
    operator (None when the matrix does not commute).
    """

    base: float
    transpose: float
    products: tuple
    hermitian_match: float | None


def pseudo_properties(H, eta, commuting=()) -> PseudoReport:
    """Check operators derived from a transpose-minus symmetry.

    Verifies that the transpose of ``eta`` satisfies the same relation and
    that ``w @ eta`` does for every supplied matrix w commuting with H.
    When H is Hermitian, additionally reports the difference between eta's
    transpose-relation residual and the antilinear-anticommute residual of
    the same matrix (for Hermitian H the two relations coincide exactly).
    Each of these verdicts is taken at ``PASS_TOL``.

    Parameters
    ----------
    H : array_like
    eta : SymOp or array_like
        Must already satisfy the transpose-minus relation.
    commuting : sequence of array_like
        Candidate matrices w, each finite, nonzero and of H's shape; each
        is tested for ``[w, H] = 0`` first.
    """
    H = np.asarray(H, dtype=complex)
    commuting = [np.asarray(w, dtype=complex) for w in commuting]
    for k, w in enumerate(commuting):
        if w.shape != H.shape:
            raise ValueError(f"commuting[{k}] has shape {w.shape}, "
                             f"H has {H.shape}")
        if not np.isfinite(w).all():
            raise ValueError(f"commuting[{k}] has non-finite entries")
        if not w.any():
            raise ValueError(f"commuting[{k}] is zero, so it commutes "
                             "with every H")
    if not isinstance(eta, SymOp):
        eta = SymOp(np.asarray(eta, dtype=complex), TRANSPOSE_MINUS,
                    allow_singular=True)
    base = check(H, eta)
    if not base <= PASS_TOL:
        raise ValueError(f"eta does not satisfy its relation "
                         f"({base:.3g} > {PASS_TOL:g})")
    transposed = SymOp(eta.matrix.T, TRANSPOSE_MINUS, label="transpose",
                       allow_singular=True)
    r_transpose = check(H, transposed)
    # the commutator and H - H^dagger of power-of-two rescaled factors, so
    # that no product or norm overflows; both verdicts are scale-free
    Hu = _unit_scaled(H)
    products = []
    for w in commuting:
        wu = _unit_scaled(w)
        comm_rel = (_fro_norm(wu @ Hu - Hu @ wu)
                    / max(_fro_norm(wu) * _fro_norm(Hu), 1e-300))
        if comm_rel <= PASS_TOL:
            prod = SymOp(w @ eta.matrix, TRANSPOSE_MINUS, allow_singular=True)
            products.append((comm_rel, check(H, prod)))
        else:
            products.append((comm_rel, None))
    hermitian_match = None
    if _fro_norm(Hu - Hu.conj().T) <= PASS_TOL * max(_fro_norm(Hu), 1e-300):
        as_conj = SymOp(eta.matrix, ANTILINEAR_ANTICOMMUTE)
        hermitian_match = abs(check(H, as_conj) - base)
    return PseudoReport(base, r_transpose, tuple(products), hermitian_match)


def save_op(op: SymOp, path) -> None:
    """Write an operator file: kind, dimension, then nonzero entries."""
    M = op.matrix
    _records.write(
        path, [("kind", op.kind), ("dim", M.shape[0])],
        ["allow_singular"] if op.allow_singular else [],
        [("entry", (i, j), M[i, j]) for i, j in zip(*np.nonzero(M))],
    )


_KEYWORDS = {"kind": KINDS, "dim": int, "flags": ("allow_singular",),
             "entry": 2}


def load_op(path) -> SymOp:
    """Read an operator file written by :func:`save_op` (or by hand)."""
    rec = _records.read(path, _KEYWORDS)
    M = np.zeros((rec["dim"], rec["dim"]), dtype=complex)
    for (i, j), v in rec["entry"].items():
        M[i, j] = v
    return SymOp(M, rec["kind"], allow_singular="allow_singular" in rec["flags"])
