"""Dirac matrix algebra on 4x4 complex matrices.

Five mutually anticommuting generators are indexed by 0, 1, 2, 3 and 5.
Generators 0 and 5 square to +1, generators 1, 2, 3 square to -1.  A product
of generators is a strictly ascending index tuple (``()`` is the identity);
``GammaExpr.from_terms`` reduces any factor order to it, with the sign picked
up moved into the coefficient.  Every product expression thus has a unique
form, and operators found by numerical search read as expressions.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

INDICES = (0, 1, 2, 3, 5)

# sign of gamma_mu @ gamma_mu
SQUARE_SIGN = {0: 1, 1: -1, 2: -1, 3: -1, 5: 1}

# transpose sign: gamma_mu.T == TRANSPOSE_SIGN[mu] * gamma_mu
TRANSPOSE_SIGN = {0: 1, 1: -1, 2: 1, 3: -1, 5: 1}

_S0 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)

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
    label : int, sequence of int, or str
        A generator index, an index sequence (multiplied left to right), or
        a string such as ``"g0*g1"`` or ``"1"``.

    Returns
    -------
    numpy.ndarray
        4x4 complex matrix with exact small-integer / imaginary-unit
        entries.
    """
    if isinstance(label, str):
        return gamma(_parse_factors(label))
    if isinstance(label, (int, np.integer)):
        label = (int(label),)
    out = np.eye(4, dtype=complex)
    for idx in label:
        if idx not in _GENERATORS:
            raise ValueError(f"not a generator index: {idx!r}")
        out = out @ _GENERATORS[idx]
    return out


def _parse_factors(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text == "1":
        return ()
    factors = []
    for piece in text.split("*"):
        m = re.fullmatch(r"\s*g([01235])\s*", piece)
        if m is None:
            raise ValueError(f"bad generator factor {piece!r} in {text!r}")
        factors.append(int(m.group(1)))
    return tuple(factors)


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
        multiplied left to right in any order and with repeats."""
        pairs = list(pairs)
        plan = _term_plan(tuple(tuple(factors) for factors, _ in pairs))
        return GammaExpr(tuple(
            (indices, c) for indices, _, c in
            _plan_sums(plan, [complex(coeff) for _, coeff in pairs])))

    def to_matrix(self) -> np.ndarray:
        out = np.zeros((4, 4), dtype=complex)
        for indices, coeff in self.terms:
            out += coeff * gamma(indices)
        return out

    def __str__(self) -> str:
        return format_expr(self)


# one term: optional sign, coefficient in parentheses, optional * factors;
# or a bare factor product with implicit coefficient 1
_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-]?)\s*"
    r"(?:\((?P<coeff>[^()]*)\)\s*(?:\*\s*(?P<factors>g[01235](?:\s*\*\s*g[01235])*|1))?"
    r"|(?P<bare>g[01235](?:\s*\*\s*g[01235])*|1))"
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
        position in the message.
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
    return GammaExpr.from_terms(pairs)


def _parse_coefficient(body: str, pos: int) -> complex:
    try:
        return _read_complex(body.replace(" ", ""))
    except ValueError as exc:
        raise ValueError(f"coefficient at position {pos}: {exc}") from None


def format_expr(e: GammaExpr) -> str:
    """Render an expression in the same grammar parse_expr accepts."""
    return _format_terms((_product_name(indices), coeff)
                         for indices, coeff in e.terms)


def _format_terms(named) -> str:
    parts = [f"({_format_complex(coeff)})*{name}" for name, coeff in named]
    return " + ".join(parts) if parts else "(0+0i)"


def _product_name(indices: tuple[int, ...]) -> str:
    return "*".join(f"g{i}" for i in indices) if indices else "1"


@functools.lru_cache(maxsize=64)
def _term_plan(factor_lists: tuple) -> tuple:
    """How coefficients, one per factor sequence of ``factor_lists``, sum
    into an expression: one ``(indices, name, contributors)`` entry per
    distinct canonical product, in expression order (by length, then
    indices), with ``contributors`` its ``(position, sign)`` pairs in
    input order."""
    groups: dict[tuple[int, ...], list] = {}
    for a, factors in enumerate(factor_lists):
        indices, sign = _canonicalize(factors)
        groups.setdefault(indices, []).append((a, sign))
    return tuple((indices, _product_name(indices), tuple(contributors))
                 for indices, contributors in
                 sorted(groups.items(), key=lambda kv: (len(kv[0]), kv[0])))


def _plan_sums(plan, coeffs) -> list:
    """``(indices, name, coefficient)`` of each product of ``plan`` whose
    sum is nonzero; a coefficient given as None is left out of its sum."""
    out = []
    for indices, name, contributors in plan:
        total = 0j
        for a, sign in contributors:
            x = coeffs[a]
            if x is not None:
                total = total + x * sign
        if total != 0:
            out.append((indices, name, total))
    return out


def _expansion_text(factor_lists: tuple, coeffs) -> str:
    """``format_expr`` of the sum of the ``(factor_lists[a], coeffs[a])``
    pairs whose coefficient is not None, from the memoized plan."""
    return _format_terms((name, c) for _, name, c in
                         _plan_sums(_term_plan(factor_lists), coeffs))


def expr_to_matrix(e) -> np.ndarray:
    """Matrix of a GammaExpr, or of a string parsed as one."""
    if isinstance(e, str):
        e = parse_expr(e)
    return e.to_matrix()


_BASIS16_LABELS = (((),)
                   + tuple((i,) for i in INDICES)
                   + tuple((INDICES[a], INDICES[b])
                           for a in range(5) for b in range(a + 1, 5)))
_BASIS16 = np.array([gamma(l) for l in _BASIS16_LABELS])
_BASIS16.flags.writeable = False


def basis16_labels() -> list[tuple[int, ...]]:
    """The 16 canonical index tuples: identity, 5 singles, 10 pairs."""
    return list(_BASIS16_LABELS)


def basis16() -> list[np.ndarray]:
    """Matrices of the 16 canonical products, spanning all 4x4 matrices.

    A fresh list of fresh arrays: callers may modify what they get.
    """
    return list(_BASIS16.copy())


def expand_in_basis16(M) -> np.ndarray:
    """Coefficients of a 4x4 matrix in the 16-product basis."""
    M = np.asarray(M, dtype=complex)
    if M.shape != (4, 4):
        raise ValueError(f"need a 4x4 matrix, got shape {M.shape}")
    return np.linalg.solve(_BASIS16.reshape(16, -1).T, M.reshape(-1))


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


def verify_product_identities(draws: int = 100, seed: int = 0) -> list[str]:
    """Check the product anticommutation identities.

    Exactly: {g_j g_k, g_l} = 0 whenever l is j or k (j != k), and
    {g_j g_k, g_k g_l} = 0 for distinct j, k, l.  To 1e-12: for a random
    complex combination t = sum_{k != j} a_k g_k, the product g_j t
    anticommutes with t, repeated ``draws`` times with fresh coefficients.

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
    rng = np.random.default_rng(seed)
    for n in range(draws):
        j = INDICES[rng.integers(5)]
        rest = [k for k in INDICES if k != j]
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        tilde = sum(a[m] * gamma(rest[m]) for m in range(4))
        prod = gamma(j) @ tilde
        anti = prod @ tilde + tilde @ prod
        if np.abs(anti).max() > 1e-12:
            bad.append(f"draw {n}: {{g{j}*t, t}} residual {np.abs(anti).max():g}")
    return bad
