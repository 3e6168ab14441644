"""Symmetry relations of non-Hermitian matrices: checkers and discovery.

Every relation kind is linear in the operator M and reads

    H M + sign * M B(H) = 0,

where the partner B(H) is H, its transpose, its complex conjugate or its
conjugate transpose.  Antilinear operators are represented by their
linear part, with the conjugation moved onto H.  One table,
``RELATIONS``, records each kind's partner and sign together with the
token model hints use for it and, for the four kinds that can be
discovered, the relation name :func:`discover` accepts:

======================  =========  ====  ==========  =============
kind                    B(H)       sign  hint        discover name
======================  =========  ====  ==========  =============
linear_anticommute      H          +     chiral      chiral
antilinear_anticommute  conj(H)    +     nhph        nhph
antilinear_commute      conj(H)    -     rt          bosonic
transpose_minus         H^T        +     pseudo      pseudo_chiral
dagger_plus             H^dagger   -     pseudoH
dagger_minus            H^dagger   +     antipseudo
======================  =========  ====  ==========  =============

The table gives :func:`check` its residual, :func:`named_operator` and
:func:`discover` their name lookups, and discovery both of its kernels.
The transpose and dagger relations are used in this inverse-free form, so
a singular candidate can still be evaluated when explicitly allowed.

Discovery is spectral where it can be.  For diagonalizable
H = V diag(lam) V^-1 the partner diagonalizes as B(H) = P diag(mu) P^-1
(mu = lam, or conj(lam) for the conjugating kinds), and with M = V Y P^-1
the relation reads Y_ij (lam_i + sign * mu_j) = 0.  The solutions are
spanned by one rank-one eigen-dyad per matched eigenvalue pair, found in
O(n^3) time.  A defective or badly conditioned H, and a caller-supplied
basis, take the dense kernel instead: the nullspace of the matrix whose
columns are the residual map applied to each basis element (by default
the n^2 unit matrices, an n^2 x n^2 matrix, hence capped at n = 32).

Alongside: product constructors combining an antilinear symmetry with a
conjugation-type one, the symmetric/antisymmetric split rule, and a
90-degree complex rotation that exchanges which relation pair underlies a
transpose-type symmetry.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _records, clifford, model as model_mod
from .linalg import _as_square, _require_tol, nullspace

LINEAR_ANTICOMMUTE = "linear_anticommute"
ANTILINEAR_ANTICOMMUTE = "antilinear_anticommute"
ANTILINEAR_COMMUTE = "antilinear_commute"
TRANSPOSE_MINUS = "transpose_minus"
DAGGER_PLUS = "dagger_plus"
DAGGER_MINUS = "dagger_minus"


@dataclass(frozen=True)
class Relation:
    """One relation kind: ``H M + sign * M B(H) = 0``.

    ``B(H)`` is H, complex conjugated if ``conj`` and transposed if
    ``transpose``.  ``hint`` names the kind in model symmetry hints and
    ``discover_name`` in :func:`discover` (None: not discoverable).
    """

    hint: str
    discover_name: str | None
    conj: bool
    transpose: bool
    sign: int

    def residual(self, H: np.ndarray, M: np.ndarray) -> np.ndarray:
        """The relation's left side, for one operator or a stack of them."""
        B = H.conj() if self.conj else H
        HM, MB = H @ M, M @ (B.T if self.transpose else B)
        return HM + MB if self.sign > 0 else HM - MB


RELATIONS = {
    LINEAR_ANTICOMMUTE: Relation("chiral", "chiral", False, False, +1),
    ANTILINEAR_ANTICOMMUTE: Relation("nhph", "nhph", True, False, +1),
    ANTILINEAR_COMMUTE: Relation("rt", "bosonic", True, False, -1),
    TRANSPOSE_MINUS: Relation("pseudo", "pseudo_chiral", False, True, +1),
    DAGGER_PLUS: Relation("pseudoH", None, True, True, -1),
    DAGGER_MINUS: Relation("antipseudo", None, True, True, +1),
}

KINDS = tuple(RELATIONS)

_HINT_KINDS = {rel.hint: kind for kind, rel in RELATIONS.items()}
_DISCOVER_KINDS = {rel.discover_name: kind for kind, rel in RELATIONS.items()
                   if rel.discover_name is not None}
DISCOVER_RELATIONS = tuple(sorted(_DISCOVER_KINDS))

COND_MAX = 1e8
PASS_TOL = 1e-10

# eigenvector condition number above which discovery leaves the spectral
# path for the dense kernel: below it, computed eigenvalues err by at most
# about 1e6 * eps * ||H|| = 2e-10 ||H||, under discovery's default tol
SPECTRAL_COND_MAX = 1e6
# largest n the dense kernel takes without a caller basis: its matrix is
# n^2 x n^2, 16 MB of complex entries at n = 32
DENSE_KERNEL_MAX_N = 32


@dataclass(frozen=True)
class SymOp:
    """A candidate symmetry operator: matrix, relation kind, readable label.

    Operators of transpose or dagger kind must be invertible (condition
    number at most 1e8) unless constructed with ``allow_singular=True``, in
    which case only the inverse-free form of their relation is meaningful.
    """

    matrix: np.ndarray
    kind: str
    label: str = ""
    allow_singular: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown relation kind {self.kind!r}")
        M = _as_square(self.matrix, "operator")
        object.__setattr__(self, "matrix", M)
        # the transpose and dagger relations conjugate by the inverse
        if RELATIONS[self.kind].transpose and not self.allow_singular:
            cond = np.linalg.cond(M)
            if not cond <= COND_MAX:
                raise ValueError(
                    f"{self.kind} operator is singular or badly conditioned "
                    f"(cond {cond:.3g}); pass allow_singular=True to keep it"
                )


def _fro(M) -> float:
    return float(np.linalg.norm(M))


def _fro_norms(A: np.ndarray) -> np.ndarray:
    """Frobenius norms of a (k, n, n) stack, each summed in the order
    ``np.linalg.norm`` sums one matrix: a dot product of the real parts
    plus one of the imaginary parts."""
    k = len(A)
    re, im = A.real.reshape(k, 1, -1), A.imag.reshape(k, 1, -1)
    sq = re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)
    return np.sqrt(sq[:, 0, 0])


def _unit_scaled(A: np.ndarray) -> np.ndarray:
    """A times the power of two that brings its largest real or imaginary
    part into [0.5, 1).  The rescaling is exact, and afterwards products
    and Frobenius norms of n x n matrices cannot overflow.  A zero or
    non-finite A is returned as is.  A (k, n, n) stack is scaled matrix
    by matrix."""
    re = np.abs(A.real).max(axis=(-2, -1), initial=0.0)
    im = np.abs(A.imag).max(axis=(-2, -1), initial=0.0)
    # the larger of the two, or the real part's peak when they are
    # unordered (a NaN)
    peak = np.where(im > re, im, re)
    ok = (0 < peak) & (peak < np.inf)
    # clamped so the factor itself stays finite for a subnormal peak
    factor = np.ldexp(1.0, -np.maximum(np.frexp(peak)[1], -1021))
    if ok.all():
        return A * factor[..., None, None]
    out = A.copy()
    out[ok] = A[ok] * factor[ok][:, None, None]
    return out


# operators verified per stacked residual, bounding the (block, n, n)
# temporaries of one discovery's verification
VERIFY_BLOCK = 8


def _residuals(H: np.ndarray, kind: str, mats: np.ndarray) -> np.ndarray:
    """:func:`check`'s residual of every matrix of the (k, n, n) stack
    ``mats`` as an operator of ``kind``, verified ``VERIFY_BLOCK`` at a
    time.  Not finite where H has non-finite entries."""
    rel = RELATIONS[kind]
    H = _unit_scaled(H)
    norm_h = _fro(H)
    out = np.zeros(len(mats))
    for s in range(0, len(mats), VERIFY_BLOCK):
        M = _unit_scaled(mats[s:s + VERIFY_BLOCK])
        denom = norm_h * _fro_norms(M)
        np.divide(_fro_norms(rel.residual(H, M)), denom,
                  out=out[s:s + VERIFY_BLOCK], where=denom != 0)
    return out


def check(H, op: SymOp) -> float:
    """Residual of the operator's defining relation, scale-normalized.

    Returns ``||R|| / (||H|| * ||op||)`` (Frobenius norms) where R is the
    left side of the relation in the module docstring for ``op.kind``.
    H and the operator are first rescaled by powers of two to unit-sized
    entries; the ratio is unchanged, but no product or norm overflows.  A
    residual at most 1e-10 counts as satisfied; the number is returned,
    not thresholded.

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
    r = float(_residuals(H, op.kind, M[None])[0])
    if not np.isfinite(r):
        raise ValueError(f"{op.kind} residual is not finite; "
                         "H has non-finite entries")
    return r


def product_chiral(X, C, label: str = "") -> SymOp:
    """Linear anticommuting operator from an antilinear commuting X and an
    antilinear anticommuting C: the product ``X @ conj(C)``.

    When both ingredient relations hold for some H, the result anticommutes
    with that H; callers verify with :func:`check` rather than assuming.
    """
    X = np.asarray(X, dtype=complex)
    C = np.asarray(C, dtype=complex)
    if X.shape != C.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {C.shape}")
    return SymOp(X @ C.conj(), LINEAR_ANTICOMMUTE, label=label)


def product_pseudo(X, zeta, label: str = "") -> SymOp:
    """Transpose-type operator from an antilinear commuting X and a
    dagger-minus zeta: the product ``X @ conj(zeta)``.
    """
    X = np.asarray(X, dtype=complex)
    zeta = np.asarray(zeta, dtype=complex)
    if X.shape != zeta.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {zeta.shape}")
    return SymOp(X @ zeta.conj(), TRANSPOSE_MINUS, label=label)


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
    (transpose-minus kind) and ``chiral`` is the product S @ A
    (linear-anticommute kind); otherwise both are None and
    ``anticommutator_norm`` reports ||{A, S}||.
    """

    eta: SymOp | None
    chiral: SymOp | None
    anticommutator_norm: float


def pseudo_from_sa(H, tol: float = PASS_TOL) -> SAResult:
    """Build symmetry operators from the symmetric/antisymmetric split.

    If S and A anticommute (within ``tol * ||A|| * ||S||``), the
    antisymmetric part itself satisfies the transpose-minus relation and
    S @ A anticommutes with H; both are verified before being returned.
    A singular antisymmetric part is returned with a warning and
    ``allow_singular`` set, its relation still checked in inverse-free form.
    ``tol`` must be finite and positive.
    """
    _require_tol(tol)
    H = np.asarray(H, dtype=complex)
    S, A = sa_split(H)
    norm_a, norm_s = _fro(A), _fro(S)
    if norm_a == 0:
        return SAResult(None, None, 0.0)
    anti = _fro(A @ S + S @ A)
    if not anti <= tol * max(norm_a * norm_s, 1e-300):
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
    chiral = None
    if norm_s != 0:
        chiral = SymOp(S @ A, LINEAR_ANTICOMMUTE, label="S @ A product")
    for op in filter(None, (eta, chiral)):
        r = check(H, op)
        bound = max(10 * anti / max(_fro(H) * _fro(op.matrix), 1e-300), tol)
        if not r <= bound:
            raise RuntimeError(f"split operator failed verification ({r:.3g})")
    return SAResult(eta, chiral, anti)


def discover(H, relation: str, basis=None, labels=None,
             tol: float = 1e-9) -> list[SymOp]:
    """Find a basis of every operator satisfying a relation with H.

    Without a basis the search is spectral: H is diagonalized, every
    eigenvalue pair (i, j) with ``|lam_i + sign * mu_j| <= tol * ||H||_F``
    contributes the eigen-dyad ``v_i u_j^T`` (see the module docstring),
    and for such a dyad that gap over ``||H||_F`` is exactly its
    :func:`check` residual.  When the eigenvector matrix is badly
    conditioned (cond above ``SPECTRAL_COND_MAX``, as near an exceptional
    point) or a dyad fails verification, the dense kernel over the n^2
    unit matrices runs instead; it needs an n^2 x n^2 matrix and is
    refused above ``DENSE_KERNEL_MAX_N``.  With a basis, the dense kernel
    runs over the basis, restricting the search to its span; there ``tol``
    is the relative singular-value threshold of the nullspace.  On either
    path every returned operator is verified: its residual is at most
    ``tol``.

    Parameters
    ----------
    H : array_like
        Square complex matrix with finite entries, at most 256x256.
    relation : str
        One of ``bosonic``, ``chiral``, ``nhph``, ``pseudo_chiral``.
    basis : sequence of array_like, optional
        Linearly independent matrices spanning the search space; defaults
        to the full matrix space.
    labels : sequence of index tuples, optional
        One generator product per basis element, as
        :func:`clifford.basis16_labels` gives them; only with a basis.
        When given, each solution's label is its expansion as a generator
        expression.
    tol : float
        Finite and positive: the pairing gap and residual bound above.

    Returns
    -------
    list of SymOp
        A basis of the solution space, each scaled so its largest
        coefficient (its largest entry, without a basis) is 1; the length
        is the space's dimension.

    Raises
    ------
    ValueError
        On bad input, or when the dense kernel would be needed above its
        size limit.
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
    if labels is not None and (basis is None or len(labels) != len(basis)):
        raise ValueError("labels need a basis, one label per element")
    if basis is not None:
        mats = [np.asarray(b, dtype=complex) for b in basis]
        if any(b.shape != (n, n) for b in mats):
            raise ValueError("basis elements must match H's shape")
        mats = np.array(mats)
        k = len(mats)
        if np.linalg.matrix_rank(mats.reshape(k, -1), tol=1e-10 * max(n, k)) < k:
            raise ValueError("basis elements are linearly dependent")
        return _dense_kernel(H, kind, mats, labels, tol)
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
    return _dense_kernel(H, kind, units, None, tol)


def _eigen_dyads(H, kind: str, tol: float) -> list[SymOp] | None:
    """Spectral solution basis, or None when the dense kernel must decide."""
    rel = RELATIONS[kind]
    lam, V = np.linalg.eig(H)
    sigma = np.linalg.svd(V, compute_uv=False)
    if sigma.size and not sigma[-1] * SPECTRAL_COND_MAX >= sigma[0]:
        return None
    mu = lam.conj() if rel.conj else lam
    gap = np.abs(lam[:, None] + rel.sign * mu[None, :])
    i, j = np.nonzero(gap <= tol * _fro(H))
    if not i.size:
        return []
    # rows u_j with B(H) = U^-1 diag(mu) U
    U = V.T if rel.transpose else np.linalg.inv(V)
    if rel.conj:
        U = U.conj()
    # both pivots become 1, so each dyad's largest entry is 1
    X = (_pivot_normalized(V.T[i])[:, :, None]
         * _pivot_normalized(U[j])[:, None, :])
    if not np.all(_residuals(H, kind, X) <= tol):
        return None
    return [SymOp(x, kind, allow_singular=True) for x in X]


def _pivot_normalized(rows: np.ndarray) -> np.ndarray:
    """Each row divided by its first largest-magnitude entry."""
    pivots = rows[np.arange(len(rows)), np.argmax(np.abs(rows), axis=1)]
    return rows / pivots[:, None]


def _dense_kernel(H, kind: str, mats: np.ndarray, labels,
                  tol: float) -> list[SymOp]:
    """Solutions in the span of the (k, n, n) stack ``mats``: the nullspace
    of the n^2 x k matrix whose column a is the column-stacked residual of
    ``mats[a]``."""
    k, n = len(mats), H.shape[0]
    R = RELATIONS[kind].residual(H, mats)
    coeffs = _pivot_normalized(
        nullspace(R.transpose(0, 2, 1).reshape(k, -1).T, tol).T)
    # one ordered sum over the basis per solution: tensordot would regroup
    # the additions and change the last digits of the result, and a single
    # broadcast would hold a (solutions, k, n, n) temporary
    sols = np.empty((len(coeffs), n, n), dtype=complex)
    for M, c in zip(sols, coeffs):
        M[...] = (c[:, None, None] * mats).sum(axis=0)
    r = _residuals(H, kind, sols)
    failed = np.flatnonzero(~(r <= tol))
    if failed.size:
        raise RuntimeError(f"discovered operator fails its relation "
                           f"({r[failed[0]]:.3g} > {tol:g})")
    return [SymOp(M, kind, label=_coefficient_label(c, labels),
                  allow_singular=True) for M, c in zip(sols, coeffs)]


def _coefficient_label(c, labels) -> str:
    if labels is None:
        return ""
    cutoff = 1e-12 * float(np.abs(c).max())
    return clifford.format_expr(clifford.GammaExpr.from_terms(
        (labels[a], x) for a, x in enumerate(c) if abs(x) > cutoff))


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


def hidden_nhph(beta: complex, g1: complex, g2: complex,
                tol: float = PASS_TOL) -> SymOp:
    """Antilinear anticommuting operator of the wheel model, real beta only.

    The conjugation part is the two-site rotation times
    ``Re(g2)*g1 - i*Im(g1)*g3``.  A complex beta lifts both the
    rotation-conjugation symmetry and this one, so it is refused.  The
    construction is verified against the wheel matrix before returning,
    and the product of the rotation-conjugation with this operator is
    confirmed to be a scalar multiple of the wheel's anticommuting
    operator ``Re(g2)*g1 + i*Im(g1)*g3``.  ``tol`` must be finite and
    positive.
    """
    _require_tol(tol)
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
    if not r <= tol:
        raise RuntimeError(f"construction failed verification ({r:.3g})")
    pi = product_chiral(rot2, C).matrix
    pi_expected = g2.real * clifford.gamma(1) + 1j * g1.imag * clifford.gamma(3)
    scale = np.vdot(pi_expected, pi) / np.vdot(pi_expected, pi_expected)
    if not _fro(pi - scale * pi_expected) <= tol * _fro(pi):
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


def pseudo_properties(H, eta, commuting=(), tol: float = PASS_TOL) -> PseudoReport:
    """Check operators derived from a transpose-minus symmetry.

    Verifies that the transpose of ``eta`` satisfies the same relation and
    that ``w @ eta`` does for every supplied matrix w commuting with H.
    When H is Hermitian, additionally reports the difference between eta's
    transpose-relation residual and the antilinear-anticommute residual of
    the same matrix (for Hermitian H the two relations coincide exactly).

    Parameters
    ----------
    H : array_like
    eta : SymOp or array_like
        Must already satisfy the transpose-minus relation within tol.
    commuting : sequence of array_like
        Candidate matrices w; each is tested for ``[w, H] = 0`` first.
    tol : float
        Finite and positive.
    """
    _require_tol(tol)
    H = np.asarray(H, dtype=complex)
    if not isinstance(eta, SymOp):
        eta = SymOp(np.asarray(eta, dtype=complex), TRANSPOSE_MINUS,
                    allow_singular=True)
    base = check(H, eta)
    if not base <= tol:
        raise ValueError(f"eta does not satisfy its relation ({base:.3g} > {tol:g})")
    transposed = SymOp(eta.matrix.T, TRANSPOSE_MINUS, label="transpose",
                       allow_singular=True)
    r_transpose = check(H, transposed)
    products = []
    for w in commuting:
        w = np.asarray(w, dtype=complex)
        comm = np.linalg.norm(w @ H - H @ w)
        denom = max(_fro(w) * _fro(H), 1e-300)
        comm_rel = comm / denom
        if comm_rel <= tol:
            prod = SymOp(w @ eta.matrix, TRANSPOSE_MINUS, allow_singular=True)
            products.append((comm_rel, check(H, prod)))
        else:
            products.append((comm_rel, None))
    hermitian_match = None
    herm = np.linalg.norm(H - H.conj().T)
    if herm <= tol * max(_fro(H), 1e-300):
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
