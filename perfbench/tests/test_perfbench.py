"""Tests of the benchmark itself: oracles, seeding, the tail rule, tracing.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import math
import random

import numpy as np
import pytest

from nhsym import cli, clifford, model, spectra, symmetry

import oracles
import run
import tracing
import worker
import workloads


# -- oracles catch corrupted outputs ---------------------------------------

def test_wrong_dimension_is_a_failure():
    H = model.to_matrix(workloads.preset_model("dirac4a",
                                               {"g1": 1 + 0.2j, "g2": 0.5 - 0.1j}))
    ops = symmetry.discover(H, "chiral", basis=clifford.basis16(),
                            labels=clifford.basis16_labels())
    dim = oracles.pair_count(H, "chiral")
    assert oracles.check_discover(H, ops, dim, 1e-9, symmetry.check) is None
    assert "dimension" in oracles.check_discover(H, ops[:-1], dim, 1e-9,
                                                 symmetry.check)


def test_operator_failing_its_relation_is_a_failure():
    H = np.diag([1.0, -1.0]).astype(complex)
    bad = symmetry.SymOp(np.eye(2), symmetry.LINEAR_ANTICOMMUTE)
    assert "residual" in oracles.check_discover(H, [bad], 1, 1e-9, symmetry.check)


def _with_row(csv: bytes, row: int, column: int, change) -> bytes:
    lines = csv.decode("ascii").split("\n")
    fields = lines[row].split(",")
    fields[column] = repr(change(float(fields[column])))
    lines[row] = ",".join(fields)
    return "\n".join(lines).encode("ascii")


def test_perturbed_trajectory_is_a_failure():
    ref = oracles.SweepReference("2c")
    assert oracles.compare_trajectories(ref.csv, ref) is None
    bumped = _with_row(ref.csv, 800, 2, lambda x: x + 1e-6)
    assert "differs" in oracles.compare_trajectories(bumped, ref)


def test_one_ulp_trajectory_change_passes():
    ref = oracles.SweepReference("2c")
    nudged = _with_row(ref.csv, 800, 2, lambda x: math.nextafter(x, math.inf))
    assert nudged != ref.csv
    assert oracles.compare_trajectories(nudged, ref) is None


def test_swapped_mode_order_is_a_failure():
    ref = oracles.SweepReference("2c")
    lines = ref.csv.decode("ascii").split("\n")
    n_modes = 4
    for start in range(1 + 200 * n_modes, len(lines) - 1, n_modes):
        a, b = lines[start].split(","), lines[start + 1].split(",")
        a[2:], b[2:] = b[2:], a[2:]
        lines[start], lines[start + 1] = ",".join(a), ",".join(b)
    swapped = "\n".join(lines).encode("ascii")
    assert oracles.compare_trajectories(swapped, ref) is not None


def test_changed_events_are_a_failure():
    ref = oracles.SweepReference("2b")
    stdout = ref.events_line()
    assert oracles.check_sweep(0, stdout, b"[]", ref.csv, ref) is not None
    events = json.dumps(ref.events).encode()
    assert oracles.check_sweep(0, stdout, events, ref.csv, ref) is None


def test_ep_order_off_is_a_failure():
    expect = oracles.EP_EXPECT["1b"]
    assert oracles.check_ep(True, math.sqrt(2), 3, expect) is None
    assert "order" in oracles.check_ep(True, math.sqrt(2), 2, expect)
    assert "parameter" in oracles.check_ep(True, 1.4, 3, expect)
    assert "found" in oracles.check_ep(False, math.sqrt(2), 0, expect)


def test_wrong_exit_code_is_a_failure():
    expect = {"rc": 0, "lines": ["6/6 declared operators pass"]}
    stdout = "dirac4a: 6/6 declared operators pass (tol 1e-10)\n"
    assert oracles.check_cli(0, stdout, expect) is None
    assert "exit code" in oracles.check_cli(1, stdout, expect)
    assert "lacks" in oracles.check_cli(0, "dirac4a: 5/6", expect)


def test_cli_ep_line_is_parsed_and_checked():
    expect = {"rc": 0, "lines": [], "ep": (True, math.sqrt(2), 3)}
    good = ("fig 1b (tau): exceptional point at parameter 1.41421356366\n"
            "  eigenvalue 0+0i, algebraic 3, geometric 1, order 3\n")
    assert oracles.check_cli(0, good, expect) is None
    assert "order" in oracles.check_cli(0, good.replace("order 3", "order 2"),
                                        expect)


class _Corrupting(workloads.Workload):
    """Runs real ep_locate calls and reports a wrong order for one of them."""

    name = "ep"

    def __init__(self):
        super().__init__(1, "")
        self.ops = ["good", "bad"]
        self.expect = oracles.EP_EXPECT["jordan2"]

    def run(self, op):
        report = spectra.ep_locate(spectra.jordan2, (-0.1, 0.1))
        return report.order + (op == "bad")

    def check(self, op, order):
        return oracles.check_ep(True, 0.0, order, self.expect)


def test_run_pass_counts_each_failure():
    times, failures = [], []
    worker.run_pass(_Corrupting(), ["good", "bad", "good"], times, failures)
    assert len(times) == 3
    assert len(failures) == 1 and failures[0].startswith("bad: order")


# -- seeds ------------------------------------------------------------------

def _inputs(name, seed, tmp_path):
    w = workloads.WORKLOADS[name](seed, str(tmp_path))
    ops = [w.pass_ops(k) for k in range(3)]
    if name == "discover":
        return ops, [H.tolist() for _, H, _ in w.inputs]
    return ops, None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    assert _inputs(name, 7, tmp_path) == _inputs(name, 7, tmp_path)
    assert _inputs(name, 7, tmp_path) != _inputs(name, 8, tmp_path)


def test_passes_keep_the_mix():
    w = workloads.Discover(3, "")
    inputs = [sorted(i for i, _ in w.pass_ops(k)) for k in range(4)]
    assert inputs[0] == inputs[1] == inputs[2] == inputs[3]
    assert len(inputs[0]) == 4 * 7 + 6


# -- tail rule ----------------------------------------------------------------

def test_tail_leaves_at_least_ten_samples_beyond():
    rng = random.Random(0)
    for n in range(11, 300):
        values = [rng.random() for _ in range(n)]
        value, percentile, count = run.tail(values)
        assert count == n
        assert sum(1 for v in values if v > value) >= 10
        # one rank higher would leave fewer than ten
        assert sum(1 for v in values if v > sorted(values)[n - 10]) < 10
        assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


# -- tracing ------------------------------------------------------------------

def test_traced_sweeps_repeat_the_known_eig_counts(tmp_path):
    expected = {"1b": 484, "2b": 442, "2c": 421, "4c": 400, "4d": 400, "5b": 421}
    for tag, calls in expected.items():
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()) as buf:
                rc = cli.main(["sweep", "--fig", tag, "--out", str(tmp_path)])
        finally:
            tracer.uninstall()
        assert workloads.check_sweep_files(
            rc, buf.getvalue(), str(tmp_path), oracles.SweepReference(tag)) is None
        layers = tracing.layer_metrics(tracer.spans)
        assert layers["linalg.eig.calls"][0] == calls
        assert layers["spectra.sweep.refine_eig_calls"][0] == calls - 400
        assert layers["cli.main.self_s"][0] > 0
    assert spectra.sweep.__name__ == "sweep"  # uninstalled
    assert not hasattr(spectra.sweep, "__wrapped__")


def test_self_time_subtracts_children():
    spans = [["spectra.ep_locate", 0.0, 10.0, -1, 0, None],
             ["linalg.eig", 1.0, 4.0, 0, 0, None],
             ["linalg.eig", 5.0, 6.0, 0, 0, None]]
    layers = tracing.layer_metrics(spans)
    assert layers["spectra.ep_locate.self_s"][0] == pytest.approx(6.0)
    assert layers["linalg.eig.self_s"][0] == pytest.approx(4.0)
    assert layers["spectra.ep_locate.evals"][0] == 2


def test_importtime_parse():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       867 |     245513 |       scipy.linalg\n"
              "import time:       749 |     216515 |       scipy.optimize\n"
              "import time:       897 |     579599 |   nhsym\n"
              "import time:       100 |        100 |   nhsym.cli\n")
    assert tracing.parse_importtime(stderr) == {
        "import.scipy_linalg_s": 0.245513,
        "import.scipy_optimize_s": 0.216515,
        "import.nhsym_s": 0.579599}
