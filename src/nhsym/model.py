"""Tight-binding model builders with sublattice bookkeeping.

A Model is a named Hamiltonian matrix over an ordered site list: the
diagonal holds the complex on-site potentials and ``H[j, i]`` the
amplitude from site i to site j, so asymmetric hopping (amplitude i->j
different from j->i) is representable without special cases.  Builders
cover a 13-site honeycomb flake with balanced gain and loss, a 4-site
wheel with rotation-time symmetry, two 4-site Dirac-matrix lattices, the
all-to-all 4-site pyramid family, bipartite blocks with imaginary on-site
detuning, and the 2x2 Bloch matrix of a dimerized chain.

Each builder attaches ``symmetry_hints``: strings naming relations the
built matrix is expected to satisfy, resolvable to concrete operators with
:func:`nhsym.symmetry.named_operator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _records
from .clifford import GammaExpr, format_expr, gamma
from .linalg import _as_square, _real

SUBLATTICES = ("A", "B", "none")


@dataclass(frozen=True, eq=False)
class Model:
    """A tight-binding system on a fixed, ordered site list.

    Models compare by identity; compare ``matrix`` to compare Hamiltonians.

    Fields
    ------
    name : str
        Identifier: one nonempty line, no ``#``, no surrounding
        whitespace.
    matrix : numpy.ndarray
        The Hamiltonian: square, finite, 1 to 256 sites; ``matrix[j, i]``
        is the amplitude from site i to site j.  Stored as a read-only
        complex copy.
    sublattice : tuple of str
        Per-site label in {"A", "B", "none"}.
    symmetry_hints : tuple of str
        Relation hints of the form ``kind:opspec``; see
        :func:`nhsym.symmetry.named_operator`.
    non_bipartite : bool
        When False, a nonzero off-diagonal entry between two labeled sites
        must connect A to B.
    """

    name: str
    matrix: np.ndarray
    sublattice: tuple
    symmetry_hints: tuple = ()
    non_bipartite: bool = False

    def __post_init__(self):
        # the name has to survive a save_model -> load_model round trip
        if (self.name.splitlines() != [self.name] or "#" in self.name
                or self.name != self.name.strip()):
            raise ValueError(
                "model name must be one nonempty line without '#' or "
                f"surrounding whitespace, got {self.name!r}")
        H = _as_square(self.matrix, "model matrix").copy()
        n = H.shape[0]
        if n < 1:
            raise ValueError("a model needs at least one site")
        labels = tuple(self.sublattice)
        if len(labels) != n:
            raise ValueError(f"need {n} sublattice labels, got {len(labels)}")
        for lab in labels:
            if lab not in SUBLATTICES:
                raise ValueError(f"bad sublattice label {lab!r}")
        if not self.non_bipartite:
            lab = np.array(labels)
            # same[i, j]: sites i != j share the label A or B
            same = (lab[:, None] == lab) & (lab != "none") & ~np.eye(n, dtype=bool)
            bad = np.argwhere(same & (H.T != 0))
            if bad.size:
                i, j = bad[0].tolist()
                raise ValueError(
                    f"coupling ({i}, {j}) stays inside sublattice {lab[i]}; "
                    "flag the model non_bipartite if intended"
                )
        H.flags.writeable = False
        object.__setattr__(self, "matrix", H)
        object.__setattr__(self, "sublattice", labels)
        object.__setattr__(self, "symmetry_hints", tuple(self.symmetry_hints))

    @property
    def n_sites(self) -> int:
        """Number of sites."""
        return self.matrix.shape[0]


def to_matrix(m: Model) -> np.ndarray:
    """The model's Hamiltonian as a new, writable array."""
    return m.matrix.copy()


# ---------------------------------------------------------------------------
# honeycomb flake

# Three fused hexagons sharing the central site.  Site order: 0 center;
# 1-6 outer ring on the majority sublattice (counterclockwise from the
# 60-degree direction); 7-9 inner minority sites; 10-12 outer minority
# sites.  15 nearest-neighbor bonds.
FLAKE_N = 13
FLAKE_EDGES = (
    (0, 7), (0, 8), (0, 9),
    (7, 1), (7, 2), (8, 3), (8, 4), (9, 5), (9, 6),
    (2, 10), (3, 10), (4, 11), (5, 11), (6, 12), (1, 12),
)
FLAKE_GAIN = (1, 3, 5)
FLAKE_LOSS = (2, 4, 6)

# Reflections about the three symmetry axes, ordered so the threefold
# rotation cycles them: mirror(j+1) = rotation @ mirror(j) as permutations.
_FLAKE_MIRRORS = (
    {0: 0, 1: 2, 2: 1, 3: 6, 6: 3, 4: 5, 5: 4, 7: 7, 8: 9, 9: 8, 10: 12, 12: 10, 11: 11},
    {0: 0, 1: 4, 4: 1, 2: 3, 3: 2, 5: 6, 6: 5, 7: 8, 8: 7, 9: 9, 10: 10, 11: 12, 12: 11},
    {0: 0, 1: 6, 6: 1, 2: 5, 5: 2, 3: 4, 4: 3, 7: 9, 9: 7, 8: 8, 10: 11, 11: 10, 12: 12},
)
_FLAKE_ROTATION = {0: 0, 1: 3, 3: 5, 5: 1, 2: 4, 4: 6, 6: 2,
                   7: 8, 8: 9, 9: 7, 10: 11, 11: 12, 12: 10}


def _permutation_matrix(mapping: dict, n: int) -> np.ndarray:
    P = np.zeros((n, n), dtype=complex)
    for src in range(n):
        P[mapping[src], src] = 1
    return P


def flake_mirror(j: int) -> np.ndarray:
    """Reflection permutation of the flake about symmetry axis j (1, 2, 3)."""
    if j not in (1, 2, 3):
        raise ValueError(f"mirror index must be 1, 2 or 3, got {j}")
    return _permutation_matrix(_FLAKE_MIRRORS[j - 1], FLAKE_N)


def flake_rotation() -> np.ndarray:
    """Counterclockwise threefold rotation permutation of the flake."""
    return _permutation_matrix(_FLAKE_ROTATION, FLAKE_N)


def honeycomb_flake(g: float, tau: float) -> Model:
    """13-site honeycomb flake with mirror-paired gain and loss.

    Parameters
    ----------
    g : float
        Nearest-neighbor coupling, positive.
    tau : float
        Gain/loss strength, non-negative: +i*tau on three majority-sublattice
        outer sites and -i*tau on their mirror images, so each of the three
        reflection axes exchanges gain with loss.

    Returns
    -------
    Model
        Bipartite, 7 majority (A) and 6 minority (B) sites.  The imaginary
        potentials sit exactly on the support of the Hermitian zero mode.
    """
    g, tau = _real(g, "g"), _real(tau, "tau")
    if g <= 0:
        raise ValueError("g must be positive")
    if tau < 0:
        raise ValueError("tau must be non-negative")
    H = np.zeros((FLAKE_N, FLAKE_N), dtype=complex)
    H[FLAKE_GAIN, FLAKE_GAIN] = 1j * tau
    H[FLAKE_LOSS, FLAKE_LOSS] = -1j * tau
    i, j = np.array(FLAKE_EDGES).T
    H[i, j] = H[j, i] = g
    labels = tuple("A" if s <= 6 else "B" for s in range(FLAKE_N))
    hints = (
        "chiral:mirror1*sublattice",
        "chiral:mirror2*sublattice",
        "chiral:mirror3*sublattice",
        "nhph:sublattice",
        "rt:mirror1",
        "rt:mirror2",
        "rt:mirror3",
    )
    return Model("honeycomb_flake", H, labels, hints)


# ---------------------------------------------------------------------------
# 4-site Dirac-matrix models


def _expr_str(pairs) -> str:
    return format_expr(GammaExpr.from_terms(pairs))


def rt_wheel(beta: complex, g1: complex, g2: complex) -> Model:
    """4-site wheel with paired couplings g1, g2 and their conjugates.

    Sites 0, 1 carry on-site +beta and sites 2, 3 carry -beta; the ring of
    couplings is g1 (0-2), g2 (1-2), conj(g1) (1-3), conj(g2) (0-3), each
    symmetric.  The matrix is complex symmetric and equals

        beta*g0 + Re(g1)*g5 + g0 @ (Re(g2)*g1 + i*Im(g1)*g3) + Im(g2)*g2

    in generator notation.
    """
    beta, g1, g2 = complex(beta), complex(g1), complex(g2)
    c1, c2 = g1.conjugate(), g2.conjugate()
    H = np.diag([beta, beta, -beta, -beta]) + np.array(
        [[0, 0, g1, c2], [0, 0, g2, c1], [g1, g2, 0, 0], [c2, c1, 0, 0]])
    hints = []
    chiral = (((1,), g2.real), ((3,), 1j * g1.imag))
    if g2.real != 0 or g1.imag != 0:
        hints.append("chiral:" + _expr_str(chiral))
    if beta.imag == 0:
        # the rotation-by-two-sites permutation, i*g2*g3 as a generator product
        hints.append("rt:(0+1i)*g2*g3")
        nhph = (((0, 5), g2.real), ((2,), -g1.imag))
        if g2.real != 0 or g1.imag != 0:
            hints.append("nhph:" + _expr_str(nhph))
    return Model("rt_wheel", H, ("A", "A", "B", "B"), hints)


def dirac4(variant: str, g1: complex, g2: complex) -> Model:
    """4-site lattice whose matrix is a two-term generator combination.

    Variant "a" is ``g1*g5 - g2*g1`` (one symmetric and one asymmetric
    coupling); variant "b" is ``g1*g5 + g2*g0*g1`` (both couplings
    symmetric, signs staggered).  Both are bipartite with sites (0, 1)
    against (2, 3).
    """
    g1, g2 = complex(g1), complex(g2)
    if variant == "a":
        H = g1 * gamma(5) - g2 * gamma(1)
        hints = ["chiral:g0", "chiral:g2", "chiral:g3", "chiral:g1*g5"]
        mix = (((5,), g2), ((1,), -g1))
        if g1 != 0 or g2 != 0:
            hints.append("chiral:" + _expr_str(mix))
        hints.append("pseudo:g1")
    elif variant == "b":
        H = g1 * gamma(5) + g2 * gamma((0, 1))
        hints = ["chiral:g0", "chiral:g1", "chiral:g1*g5", "chiral:g0*g5"]
    else:
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    return Model(f"dirac4{variant}", H, ("A", "A", "B", "B"), hints)


_DETUNING_LABELS = {(0,), (1, 2), (3, 5)}


def pyramid(variant: str, g1: complex, g2: complex, g3: complex,
            detunings=()) -> Model:
    """All-to-all 4-site model from a three-term generator combination.

    Variant "nochiral" is ``g1*g5 + g2*g0*g1 + g3*g0*g1*g5`` (no operator
    anticommutes with it for generic couplings); variant "chiral" is
    ``g1*g5 + g2*g0*g1 + g3*g1*g5``.  ``detunings`` is a list of
    ``(indices, coefficient)`` pairs, ``indices`` a generator index tuple
    such as ``(3, 5)``, restricted to the diagonal products g0, g1*g2 and
    g3*g5.

    For the chiral variant the attached hints track which operators survive
    each detuning direction, including the detuning-dependent combination
    ``g1 - (d2/g1_coupling)*g1*g3`` when the g3*g5 direction is present.
    """
    g1, g2, g3 = complex(g1), complex(g2), complex(g3)
    if variant == "nochiral":
        H = g1 * gamma(5) + g2 * gamma((0, 1)) + g3 * gamma((0, 1, 5))
    elif variant == "chiral":
        H = g1 * gamma(5) + g2 * gamma((0, 1)) + g3 * gamma((1, 5))
    else:
        raise ValueError(f"variant must be 'nochiral' or 'chiral', got {variant!r}")
    pairs = [(factors, complex(coeff)) for factors, coeff in detunings]
    present = dict(GammaExpr.from_terms(pairs).terms)
    if not present.keys() <= _DETUNING_LABELS:
        raise ValueError(
            f"detunings {sorted(present.keys() - _DETUNING_LABELS)} are not "
            "along the diagonal products g0, g1*g2, g3*g5"
        )
    for factors, coeff in pairs:
        H = H + coeff * gamma(factors)
    hints = []
    if variant == "chiral":
        if (3, 5) not in present:
            hints.append("chiral:g1")
        if (1, 2) not in present:
            hints.append("chiral:g0*g5")
        if (3, 5) in present and (0,) not in present and g1 != 0:
            hints.append("chiral:" + format_expr(
                pyramid_evolving_chiral(g1, present[(3, 5)])))
    return Model(f"pyramid_{variant}", H, ("none",) * 4, hints,
                 non_bipartite=True)


def pyramid_evolving_chiral(g1: complex, d2: complex) -> GammaExpr:
    """Operator anticommuting with the detuned chiral-variant pyramid.

    For base coupling ``g1`` on the g5 term and detuning coefficient ``d2``
    on the g3*g5 direction, the combination ``g1 - (d2/g1)*g1*g3``
    anticommutes with the full detuned matrix (any g1*g2-direction detuning
    is tolerated for free).
    """
    g1 = complex(g1)
    if g1 == 0:
        raise ValueError("needs a nonzero g5-term coupling")
    return GammaExpr.from_terms([
        ((1,), 1.0),
        ((1, 3), -complex(d2) / g1),
    ])


# ---------------------------------------------------------------------------
# bipartite block models


def bipartite_pseudo(T, D_A, D_B, name: str = "bipartite_pseudo",
                     extra_hints=()) -> Model:
    """Bipartite model ``[[i*diag(D_A), T], [T^dagger, i*diag(D_B)]]``.

    Parameters
    ----------
    T : array_like
        Complex coupling block, shape (n_A, n_B).
    D_A, D_B : array_like
        Real detuning vectors; the on-site potentials are purely imaginary.

    Returns
    -------
    Model
        Sites ordered A block then B block.  The sublattice-sign operator
        C = P_A - P_B always satisfies ``C @ H^dagger @ inv(C) = -H``,
        recorded as the ``antipseudo:sublattice`` hint.
    """
    T = np.asarray(T, dtype=complex)
    if T.ndim != 2:
        raise ValueError(f"T must be 2-d, got shape {T.shape}")
    D_A, D_B = _real(D_A, "D_A"), _real(D_B, "D_B")
    na, nb = T.shape
    if np.shape(D_A) != (na,) or np.shape(D_B) != (nb,):
        raise ValueError(f"detuning shapes {np.shape(D_A)}, {np.shape(D_B)} "
                         f"do not match T {T.shape}")
    H = np.zeros((na + nb, na + nb), dtype=complex)
    H[:na, :na] = 1j * np.diag(D_A)
    H[na:, na:] = 1j * np.diag(D_B)
    H[:na, na:] = T
    H[na:, :na] = T.conj().T
    labels = ("A",) * na + ("B",) * nb
    hints = ("antipseudo:sublattice",) + tuple(extra_hints)
    return Model(name, H, labels, hints)


CHAIN_COUPLING = 1 - 0.1j


def mirror_chain(delta: float) -> Model:
    """5-site chain preset: palindromic complex couplings, odd detuning.

    The chain 1-2-3-4-5 carries bond couplings (g, conj(g), conj(g), g),
    g = ``CHAIN_COUPLING`` (each bond Hermitian), and imaginary on-site
    detuning i*delta*(1, 1, 0, -1, -1) along the chain, odd under site
    reversal.  Sites are stored majority block first: chain positions
    (1, 3, 5) then (2, 4).

    The reversal permutation composed with the sublattice sign gives an
    operator eta with ``eta @ H.T @ inv(eta) = -H``, and the reversal alone
    composed with complex conjugation commutes with H.
    """
    delta = _real(delta, "delta")
    g = CHAIN_COUPLING
    T = np.array([[g, 0], [g, np.conj(g)], [0, np.conj(g)]])
    D_A = delta * np.array([1.0, 0.0, -1.0])
    D_B = delta * np.array([1.0, -1.0])
    return bipartite_pseudo(
        T, D_A, D_B, name="mirror_chain",
        extra_hints=("pseudo:parity*sublattice", "rt:parity"),
    )


def chain_parity(n_a: int, n_b: int) -> np.ndarray:
    """Site-reversal permutation for an A-first grouped alternating chain.

    The chain has ``n_a + n_b`` sites alternating A, B, A, ..., A (so
    ``n_a == n_b + 1``), stored with all A sites first in chain order, then
    all B sites.  Returns the permutation matrix of position p -> n-1-p.
    """
    if n_a != n_b + 1:
        raise ValueError(f"alternating chain needs n_a == n_b + 1, got {n_a}, {n_b}")
    n = n_a + n_b

    def grouped(p):
        return p // 2 if p % 2 == 0 else n_a + p // 2

    mapping = {grouped(p): grouped(n - 1 - p) for p in range(n)}
    return _permutation_matrix(mapping, n)


LATTICE_TOKENS = ("sublattice", "mirror1", "mirror2", "mirror3", "parity")


def lattice_operator(m: Model, token: str) -> np.ndarray:
    """Resolve a lattice operator token for a model.

    Tokens: ``sublattice`` (diagonal +1 on A, -1 on B), ``mirror1`` /
    ``mirror2`` / ``mirror3`` (flake reflections), ``parity`` (chain
    reversal).
    """
    if token not in LATTICE_TOKENS:
        raise ValueError(f"unknown lattice operator token {token!r}")
    if token == "sublattice":
        if "none" in m.sublattice:
            raise ValueError(f"model {m.name!r} has unlabeled sites")
        return np.diag([1.0 + 0j if lab == "A" else -1.0 for lab in m.sublattice])
    if token == "parity":
        n_a = sum(1 for lab in m.sublattice if lab == "A")
        n_b = sum(1 for lab in m.sublattice if lab == "B")
        return chain_parity(n_a, n_b)
    if m.n_sites != FLAKE_N:
        raise ValueError(f"{token} is a flake operator; model has {m.n_sites} sites")
    return flake_mirror(int(token[-1]))


# ---------------------------------------------------------------------------
# Bloch matrix of the dimerized chain


def ssh_bloch(variant: str, t1: float, t2: float, tau: float, k: float) -> np.ndarray:
    """2x2 Bloch matrix of a dimerized chain with non-Hermiticity.

    Variant "asym_coupling" puts the non-Hermitian part in the couplings:
    ``(t1 + t2*cos k)*sx + (i*tau + t2*sin k)*sy``, which keeps sz
    anticommuting with the matrix at every k.  Variant "imag_onsite" puts
    it on the sites: ``i*tau*sz + (t1 + t2*cos k)*sx + t2*sin k*sy``, which
    breaks that anticommutation for tau != 0 but satisfies
    ``sy @ H.T @ inv(sy) = -H`` at every k.
    """
    t1, t2 = _real(t1, "t1"), _real(t2, "t2")
    tau, k = _real(tau, "tau"), _real(k, "k")
    hx = t1 + t2 * np.cos(k)
    hy = t2 * np.sin(k)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    if variant == "asym_coupling":
        return hx * sx + (1j * tau + hy) * sy
    if variant == "imag_onsite":
        return 1j * tau * sz + hx * sx + hy * sy
    raise ValueError(f"variant must be 'asym_coupling' or 'imag_onsite', got {variant!r}")


# ---------------------------------------------------------------------------
# file round trip


def save_model(m: Model, path) -> None:
    """Write a model file: header lines, a site line per site, then a hop
    line per nonzero off-diagonal entry, in (i, j) order.

    Sublattice labels and symmetry hints are not stored; labels are
    recovered on load by two-coloring the coupling graph.
    """
    H = m.matrix
    rows, cols = np.nonzero(H.T)  # hop i j holds H[j, i]
    _records.write(
        path, [("name", m.name), ("n_sites", m.n_sites)],
        ["non_bipartite"] if m.non_bipartite else [],
        [("site", (i,), H[i, i]) for i in range(m.n_sites)]
        + [("hop", (i, j), H[j, i])
           for i, j in zip(rows.tolist(), cols.tolist()) if i != j],
    )


def _no_self_coupling(key: str, idx: tuple) -> None:
    if key == "hop" and idx[0] == idx[1]:
        raise ValueError(f"self-coupling on site {idx[0]}; "
                         "use a site line instead")


_KEYWORDS = {"name": str, "n_sites": int, "flags": ("non_bipartite",),
             "site": 1, "hop": 2}


def load_model(path) -> Model:
    """Read a model file written by :func:`save_model` (or by hand).

    Unlabeled format: ``name``, ``n_sites`` and optional ``flags`` header
    lines, then ``site <idx> <re> <im>`` and ``hop <i> <j> <re> <im>``
    lines; ``#`` starts a comment.  Sublattice labels are assigned by
    two-coloring each connected component of the coupling graph, the lowest
    site index getting A; a non-two-colorable graph is rejected unless the
    ``non_bipartite`` flag is present.

    Raises
    ------
    ValueError
        On malformed input, with the file line number in the message.
    """
    rec = _records.read(path, _KEYWORDS, _no_self_coupling)
    n_sites = rec["n_sites"]
    H = np.zeros((n_sites, n_sites), dtype=complex)
    for (i,), v in rec["site"].items():
        H[i, i] = v
    for (i, j), amp in rec["hop"].items():
        H[j, i] = amp
    non_bipartite = "non_bipartite" in rec["flags"]
    if non_bipartite:
        labels = ["none"] * n_sites
    else:
        labels = _two_color(n_sites, rec["hop"], path)
    return Model(rec["name"], H, labels, non_bipartite=non_bipartite)


def _two_color(n_sites, hops, path):
    adj: dict = {i: set() for i in range(n_sites)}
    for i, j in hops:
        adj[i].add(j)
        adj[j].add(i)
    labels = [None] * n_sites
    for start in range(n_sites):
        if labels[start] is not None:
            continue
        labels[start] = "A"
        queue = [start]
        while queue:
            cur = queue.pop(0)
            for nxt in sorted(adj[cur]):
                want = "B" if labels[cur] == "A" else "A"
                if labels[nxt] is None:
                    labels[nxt] = want
                    queue.append(nxt)
                elif labels[nxt] != want:
                    raise ValueError(
                        f"{path}: coupling graph is not two-colorable "
                        "(add 'flags non_bipartite')"
                    )
    return labels
