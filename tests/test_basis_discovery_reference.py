"""The basis path of discovery against the per-solution form it replaced.

``symmetry._dense_kernel`` used to sum each solution over the basis on its
own, and ``symmetry._coefficient_label`` built each label through
``GammaExpr.from_terms`` over numpy scalars, summing into a dict and
sorting it per call.  Both are kept here as the reference: on seeded
parameter sets of every 4-site preset and every relation, the discovered
operators must have the same bytes and the same labels.  Alongside, the
memoized independence verdict: it follows the basis content, refuses a
dependent basis every time, and does not depend on the basis scale.
"""

import numpy as np
import pytest

from nhsym import clifford, model, symmetry
from nhsym.clifford import GammaExpr, _canonicalize, _format_complex


def ref_from_terms(pairs) -> GammaExpr:
    acc = {}
    for factors, coeff in pairs:
        indices, sign = _canonicalize(factors)
        acc[indices] = acc.get(indices, 0j) + complex(coeff) * sign
    return GammaExpr(tuple(
        (indices, c)
        for indices, c in sorted(acc.items(),
                                 key=lambda kv: (len(kv[0]), kv[0]))
        if c != 0
    ))


def ref_format_expr(e: GammaExpr) -> str:
    if not e.terms:
        return "(0+0i)"
    parts = []
    for indices, coeff in e.terms:
        body = "*".join(f"g{i}" for i in indices) if indices else "1"
        parts.append(f"({_format_complex(coeff)})*{body}")
    return " + ".join(parts)


def ref_coefficient_label(c, labels) -> str:
    cutoff = 1e-12 * float(np.abs(c).max())
    return ref_format_expr(ref_from_terms(
        (labels[a], x) for a, x in enumerate(c) if abs(x) > cutoff))


def ref_solution(c, mats) -> np.ndarray:
    return (c[:, None, None] * mats).sum(axis=0)


def _presets(count=6, seed=13):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        g = [complex(*rng.normal(size=2)) for _ in range(3)]
        beta = float(rng.uniform(0.3, 1.2))
        yield model.dirac4("a", g[0], g[1])
        yield model.dirac4("b", g[0], g[1])
        yield model.rt_wheel(beta, g[0], g[1])
        yield model.pyramid("nochiral", *g)
        yield model.pyramid("chiral", *g)


def _recording(monkeypatch):
    """Record each solution's coefficients, labels and label string."""
    calls = []
    real = symmetry._coefficient_label

    def record(c, labels):
        got = real(c, labels)
        calls.append((c.copy(), labels, got))
        return got

    monkeypatch.setattr(symmetry, "_coefficient_label", record)
    return calls


def test_operators_and_labels_match_the_per_solution_form(monkeypatch):
    calls = _recording(monkeypatch)
    mats = np.array(clifford.basis16())
    ops = []
    for m in _presets():
        for relation in symmetry.DISCOVER_RELATIONS:
            ops += symmetry.discover(m.matrix, relation,
                                     basis=clifford.basis16(),
                                     labels=clifford.basis16_labels())
    assert len(ops) == len(calls) > 300
    for op, (c, labels, got) in zip(ops, calls):
        assert op.matrix.tobytes() == ref_solution(c, mats).tobytes()
        assert got == op.label == ref_coefficient_label(c, labels)


def test_dense_fallback_sums_match_the_per_solution_form(monkeypatch):
    # a Jordan block is defective, so discovery runs the dense kernel over
    # the n^2 unit matrices
    calls = _recording(monkeypatch)
    for n in (3, 5, 9):
        H = np.diag(np.ones(n - 1), 1) + 0.25j * np.eye(n)
        units = np.eye(n * n).reshape(n * n, n, n).transpose(0, 2, 1)
        for relation in symmetry.DISCOVER_RELATIONS:
            del calls[:]
            ops = symmetry.discover(H, relation)
            assert len(ops) == len(calls)
            for op, (c, _, _) in zip(ops, calls):
                assert op.matrix.tobytes() == ref_solution(c, units).tobytes()


def test_two_label_lists_on_one_basis_give_their_own_labels(monkeypatch):
    calls = _recording(monkeypatch)
    H = model.dirac4("a", 1 + 0.2j, 0.5).matrix
    plain = clifford.basis16_labels()
    texts = {}
    for name in ("plain", "plain again"):
        del calls[:]
        ops = symmetry.discover(H, "chiral", basis=clifford.basis16(),
                                labels=plain)
        texts[name] = [op.label for op in ops]
        assert texts[name] == [ref_coefficient_label(c, plain)
                               for c, _, _ in calls]
        for op in ops:
            assert np.allclose(clifford.expr_to_matrix(op.label), op.matrix,
                               rtol=0, atol=1e-11)
    assert texts["plain again"] == texts["plain"]
    # indices that equal an int are read as it, so the label text parses
    numeric = [tuple(np.int64(i) for i in l) for l in plain[:-1]]
    ops = symmetry.discover(H, "chiral", basis=clifford.basis16(),
                            labels=numeric + [(3.0, 5.0)])
    assert [op.label for op in ops] == texts["plain"]
    # a label printed in another factor order, a repeated one or a
    # non-index would misname its element's coefficient: all refused
    bad = {"reversed": [l[::-1] for l in plain],
           "duplicate": plain[:-1] + [plain[1]],
           "non-index": plain[:-1] + [(4,)],
           "not a tuple of indices": plain[:-1] + ["g0"],
           "an index for a tuple": [0] + plain[1:],
           "an unhashable index": [([0],)] + plain[1:],
           "no sequence": (l for l in plain)}
    for labels in bad.values():
        with pytest.raises(ValueError, match="labels"):
            symmetry.discover(H, "chiral", basis=clifford.basis16(),
                              labels=labels)


def test_basis_mutated_in_place_is_proved_again():
    H = model.dirac4("a", 1.0, 0.5).matrix
    basis = clifford.basis16()
    assert symmetry.discover(H, "chiral", basis=basis)
    basis[3][...] = basis[1] + 2 * basis[2]
    for _ in range(2):  # a dependent basis is refused on every call
        with pytest.raises(ValueError, match="dependent"):
            symmetry.discover(H, "chiral", basis=basis)
    basis[3][...] = clifford.basis16()[3]
    assert symmetry.discover(H, "chiral", basis=basis)


@pytest.mark.parametrize("relation", symmetry.DISCOVER_RELATIONS)
def test_basis_independence_does_not_depend_on_scale(relation):
    H = model.pyramid("chiral", 1 + 0.3j, 0.5 - 0.1j, 0.8).matrix
    labels = clifford.basis16_labels()
    want = [op.label for op in symmetry.discover(
        H, relation, basis=clifford.basis16(), labels=labels)]
    # up to the float limit: the stack is brought to unit scale as a whole
    # before any singular value or product is taken
    for scale in (2.0 ** -1000, 2.0 ** -40, 2.0 ** 40, 2.0 ** 1000,
                  2.0 ** 1023):
        got = symmetry.discover(H, relation, labels=labels,
                                basis=[scale * b for b in clifford.basis16()])
        assert [op.label for op in got] == want
    dependent = clifford.basis16()
    dependent[7] = dependent[0] - 1j * dependent[5]
    for scale in (1.0, 2.0 ** -40, 2.0 ** 40):
        with pytest.raises(ValueError, match="dependent"):
            symmetry.discover(H, relation,
                              basis=[scale * b for b in dependent])

