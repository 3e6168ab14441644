"""Index-tuple generator products against the label class they replaced.

A generator product used to be a ``GammaLabel``: a canonical index tuple
that carried the sign of its reordering as a coefficient of its own, which
``GammaExpr.from_terms``, the detuning loop of ``model.pyramid`` and
``symmetry._coefficient_label`` each multiplied back in.  That class, those
three loops and the builders' hint code are kept here as the reference.
On seeded parameter sets the builders' hint strings, the detuned pyramid
matrices and the basis16 discovery labels must come out the same.
"""

from dataclasses import dataclass, field

import numpy as np

from nhsym import clifford, model, symmetry
from nhsym.clifford import SQUARE_SIGN, GammaExpr, format_expr, gamma


def ref_canonicalize(indices):
    out = []
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


@dataclass(frozen=True)
class RefLabel:
    indices: tuple
    coefficient: complex = field(default=1 + 0j)

    def __post_init__(self):
        canon, sign = ref_canonicalize(self.indices)
        object.__setattr__(self, "indices", canon)
        object.__setattr__(self, "coefficient",
                           complex(self.coefficient) * sign)


def ref_from_terms(pairs) -> GammaExpr:
    acc = {}
    for label, coeff in pairs:
        if not isinstance(label, RefLabel):
            label = RefLabel(tuple(label))
        total = complex(coeff) * label.coefficient
        acc[label.indices] = acc.get(label.indices, 0j) + total
    return GammaExpr(tuple(
        (idx, c)
        for idx, c in sorted(acc.items(), key=lambda kv: (len(kv[0]), kv[0]))
        if c != 0
    ))


def ref_coefficient_label(c, labels) -> str:
    cutoff = 1e-12 * float(np.abs(c).max())
    terms = [(labels[a], coeff) for a, coeff in enumerate(c)
             if abs(coeff) > cutoff]
    return format_expr(ref_from_terms(terms))


def _expr_str(pairs) -> str:
    return format_expr(ref_from_terms(pairs))


def ref_rt_wheel_hints(beta, g1, g2):
    beta, g1, g2 = complex(beta), complex(g1), complex(g2)
    hints = []
    chiral = ((RefLabel((1,)), g2.real), (RefLabel((3,)), 1j * g1.imag))
    if g2.real != 0 or g1.imag != 0:
        hints.append("chiral:" + _expr_str(chiral))
    if beta.imag == 0:
        hints.append("rt:(0+1i)*g2*g3")
        nhph = ((RefLabel((0, 5)), g2.real), (RefLabel((2,)), -g1.imag))
        if g2.real != 0 or g1.imag != 0:
            hints.append("nhph:" + _expr_str(nhph))
    return tuple(hints)


def ref_dirac4_hints(variant, g1, g2):
    g1, g2 = complex(g1), complex(g2)
    if variant == "b":
        return ("chiral:g0", "chiral:g1", "chiral:g1*g5", "chiral:g0*g5")
    hints = ["chiral:g0", "chiral:g2", "chiral:g3", "chiral:g1*g5"]
    mix = ((RefLabel((5,)), g2), (RefLabel((1,)), -g1))
    if g1 != 0 or g2 != 0:
        hints.append("chiral:" + _expr_str(mix))
    hints.append("pseudo:g1")
    return tuple(hints)


def ref_pyramid(variant, g1, g2, g3, detunings):
    """Matrix and hints of the detuned pyramid, the label loop as it was."""
    g1, g2, g3 = complex(g1), complex(g2), complex(g3)
    third = (0, 1, 5) if variant == "nochiral" else (1, 5)
    H = g1 * gamma(5) + g2 * gamma((0, 1)) + g3 * gamma(third)
    present = {}
    for label, coeff in detunings:
        if isinstance(label, str):
            label = RefLabel(clifford._parse_factors(label))
        else:
            label = RefLabel(tuple(label))
        total = complex(coeff) * label.coefficient
        present[label.indices] = present.get(label.indices, 0j) + total
        H = H + total * gamma(label.indices)
    hints = []
    if variant == "chiral":
        has = {k for k, v in present.items() if v != 0}
        if (3, 5) not in has:
            hints.append("chiral:g1")
        if (1, 2) not in has:
            hints.append("chiral:g0*g5")
        if (3, 5) in has and (0,) not in has and g1 != 0:
            hints.append("chiral:" + _expr_str([
                (RefLabel((1,)), 1.0),
                (RefLabel((1, 3)), -present[(3, 5)] / g1),
            ]))
    return H, tuple(hints)


# every spelling of the three detuning directions, reordered ones included
_DETUNING_SPELLINGS = ((0,), "g0", (1, 2), (2, 1), "g1*g2", "g2*g1",
                       (3, 5), (5, 3), "g3*g5", "g5*g3")


def _value(rng):
    """A complex number whose real or imaginary part is sometimes exactly
    zero, so that the hints' zero tests and signed zeros are exercised."""
    re, im = rng.normal(size=2)
    u = rng.random()
    return complex(0.0 if u < 0.2 else re, 0.0 if 0.2 <= u < 0.4 else im)


def _parameter_sets(count=200, seed=10):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        g = [_value(rng) for _ in range(4)]
        picks = rng.choice(len(_DETUNING_SPELLINGS),
                           size=rng.integers(0, 5))
        detunings = tuple((_DETUNING_SPELLINGS[k], _value(rng))
                          for k in picks)
        yield g, detunings


def _index_tuples(detunings):
    """The detunings with each string spelling read as its factor tuple,
    the only label form ``model.pyramid`` takes."""
    return tuple((clifford._parse_factors(label) if isinstance(label, str)
                  else label, coeff) for label, coeff in detunings)


def _models(g, detunings):
    """(model, reference hints) for each 4-site builder with hints."""
    beta = g[3] if g[3].imag else g[3].real
    yield (model.rt_wheel(beta, g[0], g[1]),
           ref_rt_wheel_hints(beta, g[0], g[1]))
    for v in ("a", "b"):
        yield model.dirac4(v, g[0], g[1]), ref_dirac4_hints(v, g[0], g[1])
    for v in ("nochiral", "chiral"):
        m = model.pyramid(v, *g[:3], detunings=_index_tuples(detunings))
        H, hints = ref_pyramid(v, *g[:3], detunings)
        assert np.array_equal(m.matrix, H), (v, detunings)
        yield m, hints


def test_seeded_hints_match_the_label_class():
    for g, detunings in _parameter_sets():
        for m, hints in _models(g, detunings):
            assert m.symmetry_hints == hints, (m.name, g, detunings)


def test_seeded_discovery_labels_match_the_label_class(monkeypatch):
    pairs = []
    real = symmetry._coefficient_label

    def both(c, labels):
        got = real(c, labels)
        pairs.append((got, ref_coefficient_label(
            c, [RefLabel(l) for l in labels])))
        return got

    monkeypatch.setattr(symmetry, "_coefficient_label", both)
    basis, labels = clifford.basis16(), clifford.basis16_labels()
    for g, detunings in _parameter_sets():
        for m, _ in _models(g, detunings):
            for relation in symmetry.DISCOVER_RELATIONS:
                symmetry.discover(m.matrix, relation, basis=basis,
                                  labels=labels)
    assert len(pairs) > 2000
    for got, want in pairs:
        assert got == want
