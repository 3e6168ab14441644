"""Model and operator files: the shared record reader's rules, the writers'
output, round trips of every preset and hint operator, and the README's
keyword lists."""

import os
import re
import time

import pytest
from numpy.testing import assert_array_equal

from nhsym import cli, model, symmetry

OP_HEAD = "kind linear_anticommute\ndim 2\n"
MODEL_HEAD = "name m\nn_sites 2\n"

# (file text, number of the line the error must name)
BAD_OPS = {
    "second kind line": (OP_HEAD + "kind transpose_minus\n", 3),
    "second dim line": (OP_HEAD + "dim 3\n", 3),
    "unknown flag": (OP_HEAD + "flags wibble\n", 3),
    "extra entry field": (OP_HEAD + "entry 0 0 1 0 999\n", 3),
    "duplicate entry": (OP_HEAD + "entry 0 1 1 0\nentry 0 1 2 0\n", 4),
    "dim 0": ("kind linear_anticommute\ndim 0\n", 2),
    "dim -1": ("kind linear_anticommute\ndim -1\n", 2),
    "dim above the dense cap": ("kind linear_anticommute\ndim 257\n", 2),
    "nan entry": (OP_HEAD + "entry 0 1 nan 0\n", 3),
    "infinite entry": (OP_HEAD + "entry 0 1 0 -inf\n", 3),
}
BAD_MODELS = {
    "nan site": (MODEL_HEAD + "site 0 nan 0\n", 3),
    "infinite site": (MODEL_HEAD + "site 1 0 inf\n", 3),
    "overflowing hop": (MODEL_HEAD + "hop 0 1 1e400 0\n", 3),
    "nan hop": (MODEL_HEAD + "hop 1 0 0 nan\n", 3),
    "n_sites 1000000": ("name m\nn_sites 1000000\n", 2),
    "n_sites 0": ("name m\nn_sites 0\n", 2),
    # a matrix cannot hold these three, so only the loader checks them
    "self-coupling": (MODEL_HEAD + "hop 1 1 1 0\n", 3),
    "duplicate hop": (MODEL_HEAD + "hop 0 1 1 0\nhop 0 1 2 0\n", 4),
    "hop out of range": (MODEL_HEAD + "hop 0 2 1 0\n", 3),
}


@pytest.mark.parametrize("case", BAD_OPS)
def test_load_op_rejects_with_line(tmp_path, case):
    text, line = BAD_OPS[case]
    path = tmp_path / "bad.op"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ")):
        symmetry.load_op(path)


@pytest.mark.parametrize("case", BAD_MODELS)
def test_load_model_rejects_with_line(tmp_path, case):
    text, line = BAD_MODELS[case]
    path = tmp_path / "bad.model"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ")):
        model.load_model(path)


def test_load_model_dense_256_sites(tmp_path):
    # every ordered pair once, 65280 hop lines: the duplicate check must
    # not compare lines pairwise
    n = 256
    path = tmp_path / "dense.model"
    path.write_text(f"name dense\nn_sites {n}\nflags non_bipartite\n" + "".join(
        f"hop {i} {j} {i + 1} {-j}\n"
        for i in range(n) for j in range(n) if i != j))
    start = time.perf_counter()
    m = model.load_model(path)
    assert time.perf_counter() - start < 20.0
    H = model.to_matrix(m)
    assert H.shape == (n, n)
    assert H[7, 3] == 4 - 7j and H[3, 3] == 0


def test_save_model_dirac4a_text(tmp_path):
    # g1*g5 - g2*g1 at the CLI defaults g1 = 1, g2 = 0.5; hop I J holds
    # H[J, I]
    args = cli.build_parser().parse_args(["check", "--preset", "dirac4a"])
    path = tmp_path / "dirac4a.model"
    model.save_model(cli._resolve_model(args), path)
    assert path.read_text() == (
        "name dirac4a\n"
        "n_sites 4\n"
        "site 0 0 0\n"
        "site 1 0 0\n"
        "site 2 0 0\n"
        "site 3 0 0\n"
        "hop 0 2 1 0\n"
        "hop 0 3 0.5 0\n"
        "hop 1 2 0.5 0\n"
        "hop 1 3 1 0\n"
        "hop 2 0 1 0\n"
        "hop 2 1 -0.5 0\n"
        "hop 3 0 -0.5 0\n"
        "hop 3 1 1 0\n"
    )


@pytest.mark.parametrize("preset", cli.PRESETS)
def test_presets_and_hint_operators_round_trip(tmp_path, preset):
    args = cli.build_parser().parse_args(["check", "--preset", preset])
    m = cli._resolve_model(args)
    path = tmp_path / "m.model"
    model.save_model(m, path)
    back = model.load_model(path)
    assert_array_equal(model.to_matrix(back), model.to_matrix(m))
    assert (back.name, back.non_bipartite) == (m.name, m.non_bipartite)
    for hint in m.symmetry_hints:
        op = symmetry.named_operator(m, hint)
        path = tmp_path / "h.op"
        symmetry.save_op(op, path)
        back = symmetry.load_op(path)
        assert_array_equal(back.matrix, op.matrix)
        assert (back.kind, back.allow_singular) == (op.kind,
                                                    op.allow_singular)


def _readme_keyword_lists():
    """The bulleted keyword lists of the README's "File formats" section,
    one list of ``(keyword, fields)`` per bullet run."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## File formats\n", 1)[1].split("\n## ")[0]
    runs, current = [], []
    for line in section.splitlines():
        form = re.match(r"- `([^`]+)`", line)
        if form:
            key, *fields = form.group(1).split()
            current.append((key, fields))
        elif current and not line.startswith("  "):
            runs.append(current)
            current = []
    return runs + ([current] if current else [])


def _spec_keyword_list(spec):
    """``(keyword, fields)`` per keyword of a loader's spec, with the
    fields as placeholders except for flag tokens."""
    out = []
    for key, kind in spec.items():
        if key == "flags":
            out.append((key, list(kind)))
        elif isinstance(kind, int):
            out.append((key, ["?"] * (kind + 2)))
        else:
            out.append((key, ["?"]))
    return out


def test_readme_lists_exactly_the_loader_keywords():
    model_list, op_list = _readme_keyword_lists()

    def shape(forms):
        return [(k, f if k == "flags" else ["?"] * len(f)) for k, f in forms]

    assert shape(model_list) == _spec_keyword_list(model._KEYWORDS)
    assert shape(op_list) == _spec_keyword_list(symmetry._KEYWORDS)
