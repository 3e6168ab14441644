"""End-to-end runs of the console entry point (in process)."""

import ast
import contextlib
import dataclasses
import inspect
import io
import os
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhsym import cli, clifford, linalg, model, spectra, symmetry


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_preset_op_pass(capsys):
    code, out, _ = run(capsys, "check", "--preset", "dirac4a",
                       "--g1", "1", "--g2", "0.5", "--op", "g0")
    assert code == 0
    assert "pass" in out
    assert "residual 0.000e+00" in out


def test_check_preset_op_fail_exits_one(capsys):
    # g5 squares to +1, so it cannot anticommute with the g5 term
    code, out, _ = run(capsys, "check", "--preset", "dirac4a", "--op", "g5")
    assert code == 1
    assert "FAIL" in out


def test_check_op_kind_override(capsys):
    code, out, _ = run(capsys, "check", "--preset", "dirac4a",
                       "--op", "g1", "--kind", "transpose_minus")
    assert code == 0
    assert "transpose_minus" in out


def test_check_complex_argument_spelling(capsys):
    code, _, _ = run(capsys, "check", "--preset", "dirac4a",
                     "--g1", "2+0i", "--g2", "1+0.5i", "--op", "g0")
    assert code == 0


def test_check_declared_hints(capsys):
    code, out, _ = run(capsys, "check", "--preset", "dirac4a")
    assert code == 0
    assert "6/6 declared operators pass" in out


def test_check_flake_hints(capsys):
    code, out, _ = run(capsys, "check", "--preset", "flake",
                       "--g", "1", "--tau", "0.5")
    assert code == 0
    assert "7/7 declared operators pass" in out


def test_check_discover_dimension_eight(capsys):
    code, out, _ = run(capsys, "check", "--preset", "dirac4a",
                       "--discover", "chiral")
    assert code == 0
    assert "chiral solution space dimension 8" in out


def test_check_discover_empty_exits_one(capsys):
    code, out, _ = run(capsys, "check", "--preset", "pyramid-nochiral",
                       "--discover", "chiral")
    assert code == 1
    assert "chiral solution space dimension 0" in out


def test_check_discover_anti_pseudo_hermitian_on_chain(capsys):
    code, out, _ = run(capsys, "check", "--preset", "chain",
                       "--discover", "anti_pseudo_hermitian")
    m = model.mirror_chain(0.0)
    lam = np.linalg.eigvals(m.matrix)
    # one eigen-dyad per pair lam_i = -conj(lam_j)
    pairs = int((np.abs(lam[:, None] + lam.conj()[None, :])
                 <= 1e-9 * np.linalg.norm(m.matrix)).sum())
    assert code == 0 and pairs > 0
    assert (f"{m.name}: anti_pseudo_hermitian solution space dimension "
            f"{pairs}\n") in out
    ops = symmetry.discover(m.matrix, "anti_pseudo_hermitian")
    declared = symmetry.named_operator(m, "antipseudo:sublattice").matrix
    A = np.column_stack([op.matrix.ravel() for op in ops])
    coef = np.linalg.lstsq(A, declared.ravel(), rcond=None)[0]
    assert np.linalg.norm(A @ coef - declared.ravel()) <= 1e-9


def test_discovery_tol_scan_is_monotone(capsys):
    # the dense kernel keeps exactly the combinations that pass
    # verification, so no --tol ends in a numerical failure (exit 3), and a
    # larger one never finds less
    codes, dims = [], []
    for tol in ("0.05", "0.1", "0.2", "0.3", "0.4", "0.5", "0.7", "0.9"):
        code, out, _ = run(capsys, "check", "--preset", "pyramid-nochiral",
                           "--g1=3", "--g2=1", "--discover", "pseudo_chiral",
                           "--tol", tol)
        codes.append(code)
        dims.append(int(re.search(r"dimension (\d+)", out).group(1)))
    assert codes == [1, 1, 1, 0, 0, 0, 0, 0]
    assert dims == [0, 0, 0, 4, 9, 9, 9, 10]


def test_check_model_file_with_operator_file(capsys, tmp_path):
    m = model.honeycomb_flake(1.0, 0.7)
    mpath = tmp_path / "flake.model"
    model.save_model(m, mpath)
    op = symmetry.named_operator(m, "nhph:sublattice")
    opath = tmp_path / "sublattice.op"
    symmetry.save_op(op, opath)
    code, out, _ = run(capsys, "check", "--file", str(mpath),
                       "--op", str(opath))
    assert code == 0
    assert "pass" in out


@pytest.mark.parametrize("kind, dim, preset", [
    ("linear_anticommute", 13, ("flake", "--tau", "0.9")),
    ("antilinear_commute", 4, ("dirac4a",)),
])
def test_check_refuses_zero_operator_file(capsys, tmp_path, kind, dim,
                                          preset):
    # no entry lines: M = 0 satisfies every relation, and it passed with
    # residual 0
    opath = tmp_path / "zero.op"
    opath.write_text(f"kind {kind}\ndim {dim}\n")
    code, out, err = run(capsys, "check", "--preset", *preset,
                         "--op", str(opath))
    assert code == 2 and out == ""
    assert "operator is zero" in err


def test_check_refuses_zero_operator_expression(capsys):
    code, out, err = run(capsys, "check", "--preset", "dirac4a",
                         "--op", "(0+0i)*g1")
    assert code == 2 and out == ""
    assert "operator is zero" in err


def test_check_model_file_without_hints_needs_op(capsys, tmp_path):
    m = model.pyramid("nochiral", 1.0, 0.5, 0.8)
    mpath = tmp_path / "pyr.model"
    model.save_model(m, mpath)
    want = ("error: pyramid_nochiral: no declared symmetries; "
            "use --op or --discover\n")
    for source in (["--file", str(mpath)], ["--preset", "pyramid-nochiral"]):
        assert run(capsys, "check", *source) == (2, "", want), source


@pytest.mark.parametrize("expr, message", [
    ("(1e308+0i)*g1 + (1e308+0i)*g1",
     "the coefficients of g1 sum to (inf+0j), which is not finite"),
    # the identity and g0 share the diagonal, where the finite sum overflows
    ("(1e308+0i)*1 + (1e308+0i)*g0", "overflows"),
])
def test_check_refuses_an_expression_that_overflows(capsys, expr, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        clifford.expr_to_matrix(expr)
    code, out, err = run(capsys, "check", "--preset", "dirac4a", "--op", expr)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_check_bad_model_file(capsys, tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("n_sites 3\nhop 0 7 1 0\n")
    code, _, err = run(capsys, "check", "--file", str(bad))
    assert code == 2
    assert "error:" in err


def test_check_expression_needs_four_sites(capsys):
    code, _, err = run(capsys, "check", "--preset", "flake", "--op", "g0")
    assert code == 2
    assert "4-site" in err


def test_ep_jordan2(capsys):
    code, out, _ = run(capsys, "ep", "--family", "jordan2",
                       "--bracket", "-0.1", "0.1")
    assert code == 0
    assert "exceptional point at parameter" in out
    assert "order 2" in out


def test_ep_flake_order_three(capsys):
    code, out, _ = run(capsys, "ep", "--fig", "1b",
                       "--bracket", "1.0", "2.0")
    assert code == 0
    assert "order 3" in out
    param = float(out.split("parameter")[1].splitlines()[0])
    assert param == pytest.approx(np.sqrt(2.0), abs=1e-6)


def test_ep_chain_not_found(capsys):
    code, out, _ = run(capsys, "ep", "--fig", "5b",
                       "--bracket", "0", "1.00499")
    assert code == 1
    assert "no exceptional point" in out
    assert "best spread" in out


def test_ep_at_huge_parameters_is_a_negative(capsys):
    # eig's residual norms overflowed at this scale, so a correct
    # decomposition exited 3 as a numerical failure
    code, out, err = run(capsys, "ep", "--fig", "2b",
                         "--bracket", "1e300", "1.1e300")
    assert code == 1
    assert "no exceptional point in [1e+300, 1.1e+300]" in out
    assert err == ""


def test_ep_target_far_beyond_the_spectrum_is_a_negative(capsys):
    # the distance from each eigenvalue to the target overflowed, and the
    # warning escaped
    code, out, err = run(capsys, "ep", "--fig", "1b", "--bracket", "0",
                         "1e308", "--target", "1-1e308i")
    assert code == 1
    assert "no exceptional point in [0, 1e+308]" in out
    assert err == ""


def test_ep_eigenvalue_overflow_is_a_numerical_failure(capsys):
    # LAPACK returns infinite eigenvalues for this finite matrix; they were
    # accepted with NaN residuals, and the overflowing midpoint of the
    # bracket was then blamed on the model, with exit 2
    code, out, err = run(capsys, "ep", "--fig", "2b",
                         "--bracket", "1e308", "1.5e308")
    assert (code, out) == (3, "")
    assert err.startswith("error: numerical failure: ")
    assert "non-finite eigenvalues" in err


def test_sweep_writes_deterministic_outputs(capsys, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code_a, text, _ = run(capsys, "sweep", "--fig", "2b",
                          "--steps", "80", "--out", str(out_a))
    code_b, _, _ = run(capsys, "sweep", "--fig", "2b",
                       "--steps", "80", "--out", str(out_b))
    assert code_a == code_b == 0
    assert "origin spectrum symmetry" in text
    for fname in ("2b_trajectories.csv", "2b_events.json"):
        first = (out_a / fname).read_bytes()
        second = (out_b / fname).read_bytes()
        assert first == second
    header = (out_a / "2b_trajectories.csv").read_text().splitlines()[0]
    assert header == "param,mode_id,re,im,flags"


def test_sweep_origin_only_protocol(capsys, tmp_path):
    code, out, _ = run(capsys, "sweep", "--fig", "2c",
                       "--steps", "60", "--out", str(tmp_path))
    assert code == 0
    assert "origin spectrum symmetry" in out
    assert "real spectrum symmetry" not in out


def test_usage_errors_exit_two(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()
    assert cli.main(["check"]) == 2
    capsys.readouterr()
    assert cli.main(["ep", "--family", "jordan2"]) == 2
    capsys.readouterr()
    assert cli.main(["sweep", "--fig", "9z"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9", "x"])
def test_bad_tolerance_exits_two(capsys, tol):
    # a NaN tolerance used to let every one of the 169 unit matrices count
    # as a discovered flake operator, with exit 0
    for argv in (["check", "--preset", "flake", "--discover", "chiral"],
                 ["check", "--preset", "dirac4a"],
                 ["sweep", "--fig", "2b"],
                 ["ep", "--family", "jordan2", "--bracket", "0.5", "1"]):
        assert cli.main(argv + [f"--tol={tol}"]) == 2
        err = capsys.readouterr().err
        if tol == "x":
            assert "bad number 'x'" in err
        else:
            assert "finite positive" in err


@pytest.mark.parametrize("argv, shown, want", [
    (["check", "--preset", "flake", "--tau", "0.9", "--tol", "1e-12"],
     "7/7 declared operators pass (tol 1e-12)", 0),
    (["check", "--preset", "dirac4a", "--discover", "chiral", "--tol", "1e-6"],
     "chiral solution space dimension 8", 0),
    # even rounding error in the spectrum fails a threshold of 1e-20
    (["sweep", "--fig", "4c", "--steps", "5", "--tol", "1e-20"],
     "VIOLATED", 1),
    (["ep", "--family", "jordan2", "--bracket", "-0.1", "0.1", "--tol", "1e-30"],
     "no exceptional point", 1),
])
def test_accepted_tolerance_reaches_the_command(capsys, tmp_path, argv, shown,
                                                want):
    if argv[0] == "sweep":
        argv = argv + ["--out", str(tmp_path)]
    code, out, _ = run(capsys, *argv)
    assert code == want
    assert shown in out


@pytest.mark.parametrize("name, text, line, message", [
    ("bad.model", "name m\nn_sites 2\nhop 0 x 1 0\n", 3,
     "bad hop fields ['0', 'x', '1', '0']"),
    ("bad.model", "name m\nn_sites four\n", 2,
     "n_sites needs one integer, got 'four'"),
    ("bad.op", "kind linear_anticommute\ndim 2\nentry 0 1 1 z\n", 3,
     "bad entry fields ['0', '1', '1', 'z']"),
])
def test_unreadable_record_fields_exit_two(capsys, tmp_path, name, text, line,
                                           message):
    path = tmp_path / name
    path.write_text(text)
    source = (["--file", str(path)] if name.endswith(".model")
              else ["--preset", "dirac4a", "--op", str(path)])
    code, _, err = run(capsys, "check", *source)
    assert code == 2
    assert err == f"error: {path}:{line}: {message}\n"


def test_cli_defaults_are_the_library_constants(monkeypatch, capsys):
    parser = cli.build_parser()
    sweep = parser.parse_args(["sweep", "--fig", "2b"])
    assert sweep.steps == spectra.SWEEP_STEPS
    assert sweep.tol == spectra.CLASSIFY_TOL
    ep = parser.parse_args(["ep", "--family", "jordan2",
                            "--bracket", "0.5", "1"])
    assert ep.tol == spectra.EP_FOUND_TOL
    calls = []

    def recording_discover(H, relation, **kwargs):
        calls.append(kwargs["tol"])
        return []

    monkeypatch.setattr(symmetry, "discover", recording_discover)
    assert cli.main(["check", "--preset", "chain", "--discover", "chiral"]) == 1
    capsys.readouterr()
    assert calls == [symmetry.DISCOVER_TOL]


def test_thresholds_are_not_parameters():
    # each is a module constant that the docstring names
    for func, gone in ((spectra.zero_modes, "tol"),
                       (spectra.classify_spectrum, "tol"),
                       (spectra.ep_locate, "param_tol"),
                       (spectra.ep_locate, "cluster_tol"),
                       (symmetry.pseudo_from_sa, "tol"),
                       (symmetry.pseudo_properties, "tol"),
                       (symmetry.hidden_nhph, "tol"),
                       (clifford.verify_product_identities, "draws"),
                       (clifford.verify_product_identities, "seed"),
                       (spectra.sweep, "param_name"),
                       (model.mirror_chain, "g1")):
        assert gone not in inspect.signature(func).parameters
    # the protocol, not the sweep result, names the swept parameter
    assert [f.name for f in dataclasses.fields(spectra.SweepResult)] == [
        "steps", "events"]
    # every caller states its own threshold
    for func in (linalg.nullspace, linalg.multiplicities):
        tol = inspect.signature(func).parameters["tol"]
        assert tol.default is inspect.Parameter.empty


def _failed_eig(*args, **kwargs):
    raise linalg.ConvergenceError("eigenpair residual bound violated", 1.0)


def _failed_verification(H, kind, mats):
    return np.ones(len(mats))


def _failed_lapack(H):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@pytest.mark.parametrize("argv, module, name, fake", [
    (["ep", "--family", "jordan2", "--bracket", "-0.1", "0.1"],
     spectra, "eig", _failed_eig),
    (["check", "--preset", "dirac4a", "--discover", "chiral"],
     symmetry, "_residuals", _failed_verification),
    (["ep", "--family", "jordan2", "--bracket", "-0.1", "0.1"],
     np.linalg, "eig", _failed_lapack),
])
def test_numerical_failure_exits_three(capsys, monkeypatch, argv, module,
                                       name, fake):
    monkeypatch.setattr(module, name, fake)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error: numerical failure: ")
    assert "Traceback" not in err


def test_check_residuals_survive_huge_parameters(capsys):
    # ||H||_F overflows here; the residuals are now taken on rescaled
    # matrices, so they are the ones printed at unit scale, not 0 from a
    # division by inf (or nan from an overflowed product)
    code, out, _ = run(capsys, "check", "--preset", "dirac4a",
                       "--g1", "1e308", "--g2", "1e308")
    assert code == 0
    assert "6/6 declared operators pass" in out
    assert "nan" not in out
    code, out, _ = run(capsys, "check", "--preset", "dirac4a",
                       "--g1", "1e308", "--g2", "1e308", "--op", "g5")
    assert code == 1
    assert "residual 7.071e-01  FAIL" in out


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_sweep_step_limit_exits_two(capsys):
    code, _, err = run(capsys, "sweep", "--fig", "2b",
                       "--steps", "1000000000000")
    assert code == 2
    assert err.startswith("error: ") and "limit" in err
    assert "Traceback" not in err


def test_ep_bracket_wider_than_floats_exits_two(capsys):
    # both ends are finite, but hi - lo overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "ep", "--fig", "1b",
                             "--bracket", "-1e308", "1e308")
    assert (code, out) == (2, "")
    assert err.startswith("error: bracket (") and "finite" in err


@pytest.mark.parametrize("argv, name", [
    (["check", "--preset", "dirac4a", "--g1", "nan"], "--g1"),
    (["check", "--preset", "dirac4a", "--g1", "1e400"], "--g1"),
    (["check", "--preset", "rt-wheel", "--beta", "1+nani"], "--beta"),
    (["check", "--preset", "flake", "--g", "nan"], "--g"),
    (["check", "--preset", "flake", "--tau", "1e400"], "--tau"),
    (["check", "--preset", "chain", "--delta=-inf"], "--delta"),
    (["ep", "--family", "jordan2", "--bracket", "-0.1", "0.1",
      "--target", "nan"], "--target"),
    (["ep", "--family", "jordan2", "--bracket", "nan", "0.1"], "--bracket"),
    (["check", "--preset", "dirac4a", "--g1=-nan"], "--g1"),
    (["ep", "--family", "jordan2", "--bracket", "-0.1", "0.1",
      "--target=-nan"], "--target"),
    (["check", "--preset", "dirac4a", "--g1", "inf"], "--g1"),
    (["check", "--preset", "dirac4a", "--g1", "1+infi"], "--g1"),
    (["ep", "--family", "jordan2", "--bracket", "-0.1", "0.1",
      "--target=-inf"], "--target"),
])
def test_non_finite_argument_exits_two(capsys, argv, name):
    # refused as the argument they are, not later as a bad coupling or
    # tolerance, and without a RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"argument {name}" in err and "must be finite" in err


@pytest.mark.parametrize("argv, name", [
    (["check", "--preset", "flake", "--g", "x"], "--g"),
    (["check", "--preset", "flake", "--tau", "x"], "--tau"),
    (["ep", "--family", "jordan2", "--bracket", "x", "1"], "--bracket"),
])
def test_unreadable_number_exits_two(capsys, argv, name):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"argument {name}: bad number 'x'" in err


def test_unreadable_complex_number_exits_two(capsys):
    code, _, err = run(capsys, "check", "--preset", "dirac4a", "--g1", "x")
    assert code == 2
    assert "argument --g1: bad complex number 'x'" in err


@pytest.mark.parametrize("argv, dest, value", [
    (["ep", "--family", "jordan2", "--bracket", "-1e-1", "0.1"],
     "bracket", [-0.1, 0.1]),
    (["ep", "--family", "jordan2", "--bracket", "-.5", "0.1",
      "--target", "-1e-3-2i"], "target", -1e-3 - 2j),
    (["check", "--preset", "dirac4a", "--g1", "-1-0.5i"], "g1", -1 - 0.5j),
    (["check", "--preset", "chain", "--delta", "-1e-2"], "delta", -0.01),
])
def test_negative_numbers_are_values(capsys, argv, dest, value):
    # argparse alone reads "-1e-1", "-.5" and "-1-0.5i" as option names
    assert getattr(cli.build_parser().parse_args(argv), dest) == value
    code, _, err = run(capsys, *argv)
    assert code in (0, 1) and err == ""


def test_entry_point_runs_in_a_fresh_interpreter():
    # every other test imports nhsym once per session; a fresh process is
    # how the command runs, so an import-order fault shows here
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))

    def fresh(*argv):
        return subprocess.run([sys.executable, "-m", "nhsym.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)

    done = fresh("check", "--preset", "dirac4a")
    assert done.returncode == 0, done.stderr
    assert "6/6 declared operators pass" in done.stdout
    helped = fresh("check", "--help")
    assert helped.returncode == 0, helped.stderr
    for name in symmetry.DISCOVER_RELATIONS:
        assert name in helped.stdout


def test_readme_discover_relations_match_the_table():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    sentence = re.search(r"Relations for `--discover`:([^.]*)\.", text)
    names = tuple(re.findall(r"`(\w+)`", sentence.group(1)))
    assert names == symmetry.DISCOVER_RELATIONS


def test_readme_command_lines_run_as_documented(capsys, monkeypatch,
                                                tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("\n## Command line\n")[1].split("\n## ")[0]
    # the files the --file line names, and --out, in a directory of its own
    monkeypatch.chdir(tmp_path)
    flake = model.honeycomb_flake(1.0, 0.5)
    model.save_model(flake, "flake.model")
    symmetry.save_op(symmetry.named_operator(flake, "nhph:sublattice"),
                     "sublattice.op")
    got, want = [], []
    for line in section.splitlines():
        if not line.startswith("nhsym "):
            continue
        command, _, comment = line.partition("#")
        # the exit code a comment states, 0 where it states none
        stated = re.search(r"exits (\d)", comment)
        got.append((command, cli.main(shlex.split(command)[1:])))
        want.append((command, int(stated.group(1)) if stated else 0))
    assert got == want
    assert {command.split()[1] for command, _ in got} == {"check", "sweep",
                                                          "ep"}
    assert os.path.exists(os.path.join("results", "2b_events.json"))


def _own_float_constants(module):
    """``module.NAME`` to value for each float that the module's own
    top-level code assigns, so not the ones it imports."""
    tree = ast.parse(inspect.getsource(module))
    short = module.__name__.rpartition(".")[2]
    return {f"{short}.{target.id}": getattr(module, target.id)
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)
            and type(getattr(module, target.id)) is float}


def test_readme_thresholds_match_the_constants():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        bullets = re.findall(r"^- `(\w+\.\w+)` \(([^)]*)\):", fh.read(),
                             flags=re.MULTILINE)
    stated = {name: float(value) for name, value in bullets}
    assert len(stated) == len(bullets)
    assert stated == {name: value
                      for module in (linalg, spectra, symmetry)
                      for name, value in _own_float_constants(module).items()}


# numbers up to the float limits and beyond, and text that is no number
_NUMBERS = st.sampled_from(("0", "1", "-1", "1e300", "1e-300", "1e308",
                            "-1e308", "5e-324", "nan", "inf", "-inf", "x"))
_COMPLEX = _NUMBERS | st.builds(
    lambda re, im: f"{re}{'' if im[0] == '-' else '+'}{im}i",
    _NUMBERS, _NUMBERS)
_PRODUCTS = st.sampled_from(tuple(clifford.PRODUCT_NAMES.values()))
_COEFFICIENTS = st.sampled_from(("1", "1e308+0i", "-1e308+1e308i",
                                 "1e300+0i", "5e-324+0i", "0+0i", "nan+0i"))
_EXPRESSIONS = st.lists(
    st.builds("({})*{}".format, _COEFFICIENTS, _PRODUCTS),
    min_size=1, max_size=3).map(" + ".join)


@st.composite
def _argv(draw):
    """A command line of any subcommand; ``@name`` stands for a path in
    the test's directory, which holds one model file, ``pyr.model``."""
    argv = [draw(st.sampled_from(("check", "sweep", "ep")))]

    def maybe(option, values):
        # one option in three, so that most lines get past the parser
        if draw(st.sampled_from((False, True, False))):
            argv.extend((option, draw(values)))

    if argv[0] == "check":
        argv += draw(st.sampled_from(
            [["--preset", name] for name in cli.PRESETS]
            + [["--file", "@pyr.model"], ["--file", "@missing.model"]]))
        for option in ("--g1", "--g2", "--g3", "--beta"):
            maybe(option, _COMPLEX)
        for option in ("--g", "--tau", "--delta"):
            maybe(option, _NUMBERS)
        mode = draw(st.sampled_from(("declared", "--op", "--discover")))
        if mode == "--op":
            argv += ["--op", draw(_EXPRESSIONS)]
            maybe("--kind", st.sampled_from(symmetry.KINDS))
        elif mode == "--discover":
            argv += ["--discover",
                     draw(st.sampled_from(symmetry.DISCOVER_RELATIONS))]
    elif argv[0] == "sweep":
        argv += ["--fig", draw(st.sampled_from(cli.FIG_TAGS)),
                 "--steps", draw(st.sampled_from(("2", "5", "50", "1", "0",
                                                  "-1", "1e300", "x"))),
                 "--out", draw(st.sampled_from(("@out", "@out",
                                                "@pyr.model")))]
    else:
        argv += draw(st.sampled_from(
            [["--family", "jordan2"]]
            + [["--fig", tag] for tag in cli.FIG_TAGS]))
        argv += ["--bracket", *draw(
            st.sampled_from((("0", "1"), ("-1", "1"), ("5e-324", "1e300"),
                             ("-1e308", "1e308")))
            | st.tuples(_NUMBERS, _NUMBERS))]
        maybe("--target", _COMPLEX)
    maybe("--tol", _NUMBERS)
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    model.save_model(model.pyramid("nochiral", 1.0, 0.5, 0.8),
                     path / "pyr.model")
    return path


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_argv())
def test_any_command_line_ends_in_an_exit_code(fuzz_dir, argv):
    # every path, --out included, lies in the test's own directory
    argv = [str(fuzz_dir / arg[1:]) if arg.startswith("@") else arg
            for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), argv
    if code >= 2:
        assert "error:" in err.getvalue(), argv
    else:
        assert err.getvalue() == "", argv
