"""Dirac matrix algebra on 4x4 complex matrices.

Five mutually anticommuting generators are indexed by 0, 1, 2, 3 and 5.
Generators 0 and 5 square to +1, generators 1, 2, 3 square to -1.  A product
of generators is a strictly ascending index tuple (``()`` is the identity);
``GammaExpr.from_terms`` reduces any factor order to it, with the sign picked
up moved into the coefficient.  Every product expression thus has a unique
form, and operators found by numerical search read as expressions.  Such a
search labels its basis with distinct canonical products, as
``basis16_labels`` gives them, so that each printed coefficient is the
operator's own.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

from .linalg import _immutable_copy

INDICES = (0, 1, 2, 3, 5)

# sign of gamma_mu @ gamma_mu
SQUARE_SIGN = {0: 1, 1: -1, 2: -1, 3: -1, 5: 1}

# transpose sign: gamma_mu.T == TRANSPOSE_SIGN[mu] * gamma_mu
TRANSPOSE_SIGN = {0: 1, 1: -1, 2: 1, 3: -1, 5: 1}

_S0 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# each of the 32 canonical products to its name in an expression, the
# identity first, then by length and indices
PRODUCT_NAMES = {p: "*".join([f"g{i}" for i in p]) or "1"
                 for k in range(len(INDICES) + 1)
                 for p in itertools.combinations(INDICES, k)}

_GENERATORS = {
    0: np.kron(_SZ, _S0),
    1: np.kron(1j * _SY, _SX),
    2: np.kron(1j * _SY, _SY),
    3: np.kron(1j * _SY, _SZ),
    5: np.kron(_SX, _S0),
}


def _canonicalize(indices) -> tuple[tuple[int, ...], complex]:
    """Sort a factor sequence into ascending order, tracking the sign.

    Adjacent distinct generators anticommute (each transposition contributes
    -1); adjacent equal generators collapse to their square sign.
    """
    out: list[int] = []
    coeff = 1 + 0j
    for idx in indices:
        if idx not in SQUARE_SIGN:
            raise ValueError(f"not a generator index: {idx!r}")
        pos = len(out)
        while pos > 0 and out[pos - 1] > idx:
            pos -= 1
        if (len(out) - pos) % 2:
            coeff = -coeff
        if pos > 0 and out[pos - 1] == idx:
            out.pop(pos - 1)
            coeff *= SQUARE_SIGN[idx]
        else:
            out.insert(pos, idx)
    return tuple(out), coeff


def gamma(label) -> np.ndarray:
    """Matrix of a generator or generator product.

    Parameters
    ----------
    label : int or sequence of int
        A generator index, or an index sequence multiplied left to right
        (``()`` is the identity).  Text such as ``"g0*g1"`` is an
        expression: read it with :func:`parse_expr`.

    Returns
    -------
    numpy.ndarray
        4x4 complex matrix with exact small-integer / imaginary-unit
        entries.
    """
    if isinstance(label, str):
        raise ValueError(f"not a generator index sequence: {label!r}")
    if isinstance(label, (int, np.integer)):
        label = (int(label),)
    out = np.eye(4, dtype=complex)
    for idx in label:
        if idx not in _GENERATORS:
            raise ValueError(f"not a generator index: {idx!r}")
        out = out @ _GENERATORS[idx]
    return out


def _parse_factors(text: str) -> tuple[int, ...]:
    """The indices of a product that ``_TERM_RE`` admitted (``1``: none)."""
    return tuple(map(int, re.findall(_FACTOR, text)))


def _read_complex(text: str) -> complex:
    """A finite complex number spelt ``1.5-2i`` or ``1.5-2j``; only a
    trailing ``i`` is the imaginary unit, so ``inf`` stays ``inf``."""
    try:
        value = complex(re.sub(r"i$", "j", text.strip()))
    except ValueError:
        raise ValueError(f"bad complex number {text!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"complex number must be finite, got {text!r}")
    return value


def _format_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


@dataclass(frozen=True)
class GammaExpr:
    """A linear combination of canonical generator products.

    ``terms`` holds ``(indices, coefficient)`` pairs, ``indices`` a strictly
    ascending tuple drawn from INDICES; no product appears twice, no
    coefficient is zero, and the terms are ordered by length, then indices.
    """

    terms: tuple[tuple[tuple[int, ...], complex], ...]

    @staticmethod
    def from_terms(pairs) -> "GammaExpr":
        """Sum ``(factors, coefficient)`` pairs, each factor sequence
        multiplied left to right in any order and with repeats; a sum
        that is not finite is refused."""
        sums: dict[tuple[int, ...], complex] = {}
        for factors, coeff in pairs:
            indices, sign = _canonicalize(factors)
            sums[indices] = sums.get(indices, 0j) + complex(coeff) * sign
        for indices, c in sums.items():
            if not np.isfinite(c):
                raise ValueError(f"the coefficients of {PRODUCT_NAMES[indices]} "
                                 f"sum to {c}, which is not finite")
        return GammaExpr(tuple(
            (indices, c) for indices, c in
            sorted(sums.items(), key=lambda kv: (len(kv[0]), kv[0]))
            if c != 0))

    def to_matrix(self) -> np.ndarray:
        """The 4x4 matrix; one whose entries overflow is refused."""
        out = np.zeros((4, 4), dtype=complex)
        # products on one diagonal add, and finite sums can overflow there
        with np.errstate(over="ignore"):
            for indices, coeff in self.terms:
                out += coeff * gamma(indices)
        if not np.isfinite(out).all():
            raise ValueError(f"the matrix of {self} overflows")
        return out

    def __str__(self) -> str:
        return format_expr(self)


# one generator factor, capturing its index
_FACTOR = rf"g([{''.join(map(str, INDICES))}])"
# factors joined by *, or the identity 1
_PRODUCT = rf"{_FACTOR}(?:\s*\*\s*{_FACTOR})*|1"
# one term: optional sign, coefficient in parentheses, optional * product;
# or a bare product with implicit coefficient 1
_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-]?)\s*"
    rf"(?:\((?P<coeff>[^()]*)\)\s*(?:\*\s*(?P<factors>{_PRODUCT}))?"
    rf"|(?P<bare>{_PRODUCT}))"
)


def parse_expr(text: str) -> GammaExpr:
    """Parse a generator expression string.

    Grammar: terms joined by ``+`` or ``-``; each term is a complex
    coefficient in parentheses such as ``(1.5+0i)`` or ``(0+0.2i)``,
    optionally followed by ``*`` and generator factors ``g0|g1|g2|g3|g5``
    joined by ``*``.  A bare factor product carries coefficient 1; the bare
    token ``1`` is the identity.

    Raises
    ------
    ValueError
        If the string does not fully match the grammar, with the offending
        position in the message, or if the coefficients of one product sum
        to a value that is not finite.
    """
    pairs = []
    pos = 0
    first = True
    while pos < len(text):
        if text[pos:].strip() == "":
            break
        m = _TERM_RE.match(text, pos)
        if m is None or (not first and m.group("sign") == ""):
            raise ValueError(f"bad expression at position {pos}: {text[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("bare") is not None:
            coeff = complex(sign)
            factors = m.group("bare")
        else:
            coeff = sign * _parse_coefficient(m.group("coeff"), pos)
            factors = m.group("factors") or "1"
        pairs.append((_parse_factors(factors), coeff))
        pos = m.end()
        first = False
    if first:
        raise ValueError(f"empty expression: {text!r}")
    try:
        return GammaExpr.from_terms(pairs)
    except ValueError as exc:
        raise ValueError(f"expression {text!r}: {exc}") from None


def _parse_coefficient(body: str, pos: int) -> complex:
    try:
        return _read_complex(body.replace(" ", ""))
    except ValueError as exc:
        raise ValueError(f"coefficient at position {pos}: {exc}") from None


def format_expr(e: GammaExpr) -> str:
    """Render an expression in the same grammar parse_expr accepts."""
    parts = [f"({_format_complex(coeff)})*{PRODUCT_NAMES[indices]}"
             for indices, coeff in e.terms]
    return " + ".join(parts) if parts else "(0+0i)"


def expr_to_matrix(e) -> np.ndarray:
    """Matrix of a GammaExpr, or of a string parsed as one."""
    if isinstance(e, str):
        e = parse_expr(e)
    return e.to_matrix()


# the identity, the 5 generators and their 10 pairs
_BASIS16_LABELS = tuple(PRODUCT_NAMES)[:16]
_BASIS16 = _immutable_copy(np.array([gamma(l) for l in _BASIS16_LABELS]))


def basis16_labels() -> list[tuple[int, ...]]:
    """The 16 canonical index tuples: identity, 5 singles, 10 pairs."""
    return list(_BASIS16_LABELS)


def basis16() -> list[np.ndarray]:
    """Matrices of the 16 canonical products, spanning all 4x4 matrices.

    A fresh list of fresh arrays: callers may modify what they get.
    """
    return list(_BASIS16.copy())


def verify_clifford() -> list[str]:
    """Check the defining relations of the generator set exactly.

    Distinct generators anticommute; each generator squares to its
    square sign times the identity.  Returns a list of violation
    descriptions, empty when the algebra holds.
    """
    bad = []
    eye4 = np.eye(4, dtype=complex)
    for mu in INDICES:
        for nu in INDICES:
            anti = gamma(mu) @ gamma(nu) + gamma(nu) @ gamma(mu)
            want = 2 * SQUARE_SIGN[mu] * eye4 if mu == nu else np.zeros((4, 4))
            if not np.array_equal(anti, want):
                bad.append(f"pair ({mu},{nu}): anticommutator mismatch")
    return bad


def verify_product_identities() -> list[str]:
    """Check the product anticommutation identities.

    Exactly: {g_j g_k, g_l} = 0 whenever l is j or k (j != k), and
    {g_j g_k, g_k g_l} = 0 for distinct j, k, l.  To 1e-12: for a random
    complex combination t = sum_{k != j} a_k g_k, the product g_j t
    anticommutes with t, for 100 draws of the coefficients from a
    generator seeded with 0.

    Returns a list of violation descriptions, empty when all hold.
    """
    bad = []
    for j in INDICES:
        for k in INDICES:
            if k == j:
                continue
            pair = gamma(j) @ gamma(k)
            for l in (j, k):
                anti = pair @ gamma(l) + gamma(l) @ pair
                if np.any(anti != 0):
                    bad.append(f"{{g{j}g{k}, g{l}}} != 0")
            for l in INDICES:
                if l in (j, k):
                    continue
                other = gamma(k) @ gamma(l)
                anti = pair @ other + other @ pair
                if np.any(anti != 0):
                    bad.append(f"{{g{j}g{k}, g{k}g{l}}} != 0")
    rng = np.random.default_rng(0)
    for n in range(100):
        j = INDICES[rng.integers(5)]
        rest = [k for k in INDICES if k != j]
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        tilde = sum(a[m] * gamma(rest[m]) for m in range(4))
        prod = gamma(j) @ tilde
        anti = prod @ tilde + tilde @ prod
        if np.abs(anti).max() > 1e-12:
            bad.append(f"draw {n}: {{g{j}*t, t}} residual {np.abs(anti).max():g}")
    return bad
