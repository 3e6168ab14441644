"""The benchmark's workloads.

Each workload generates its inputs from the seed when it is built, hands
out the operations of one pass (``pass_ops``), runs one operation
(``run``, the timed part) and checks its output (``check``, untimed).
Passes keep the mix of operations fixed; the seed fixes their order.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import numpy as np

from nhsym import clifford, model, symmetry

import oracles
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

FIG_TAGS = ("1b", "2b", "2c", "4c", "4d", "5b")
RELATIONS = ("chiral", "pseudo_chiral", "nhph", "bosonic")
PRESETS = ("dirac4a", "dirac4b", "rt-wheel", "pyramid-nochiral",
           "pyramid-chiral", "flake", "chain")
# presets that declare operators; `check` on pyramid-nochiral is a usage error
DECLARING = tuple(p for p in PRESETS if p != "pyramid-nochiral")
DISCOVER_TOL = 1e-9  # discovery's default, in the library and the CLI
SWEEP_STEPS = 400  # the CLI's default, which every sweep here uses


def seeded(seed: int, workload: str, what: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{what}")


def preset_params(rng: random.Random, preset: str) -> dict:
    """Seeded parameters for a preset, rounded so the CLI text is exact."""
    def c():
        return complex(round(rng.uniform(0.5, 1.5), 3),
                       round(rng.uniform(-0.5, 0.5), 3))
    if preset in ("dirac4a", "dirac4b"):
        return {"g1": c(), "g2": c()}
    if preset == "rt-wheel":
        return {"beta": complex(round(rng.uniform(0.5, 1.0), 3)),
                "g1": c(), "g2": c()}
    if preset.startswith("pyramid"):
        return {"g1": c(), "g2": c(), "g3": c()}
    if preset == "flake":
        return {"g": round(rng.uniform(0.8, 1.2), 3),
                "tau": round(rng.uniform(0.0, 1.2), 3)}
    return {"delta": round(rng.uniform(0.0, 0.9), 3)}  # chain


# the parameters `nhsym check` uses when none are given
CLI_DEFAULTS = {"g1": 1 + 0j, "g2": 0.5 + 0j, "g3": 0.8 + 0j, "beta": 0.75 + 0j,
                "g": 1.0, "tau": 0.0, "delta": 0.0}


def preset_model(preset: str, p: dict = CLI_DEFAULTS) -> model.Model:
    if preset in ("dirac4a", "dirac4b"):
        return model.dirac4(preset[-1], p["g1"], p["g2"])
    if preset == "rt-wheel":
        return model.rt_wheel(p["beta"], p["g1"], p["g2"])
    if preset.startswith("pyramid"):
        return model.pyramid(preset.split("-")[1], p["g1"], p["g2"], p["g3"])
    if preset == "flake":
        return model.honeycomb_flake(p["g"], p["tau"])
    return model.mirror_chain(p["delta"])


def preset_argv(preset: str, p: dict) -> list[str]:
    out = ["--preset", preset]
    for key, v in p.items():
        text = (f"{v.real:.3f}{v.imag:+.3f}i" if isinstance(v, complex)
                else f"{v:.3f}")
        out += [f"--{key}", text]
    return out


def synthetic(rng: np.random.Generator, n: int, bipartite: bool) -> np.ndarray:
    """Random matrix: complex hoppings between two equal halves only, or a
    dense real matrix (whose spectrum is closed under conjugation)."""
    if not bipartite:
        return rng.normal(size=(n, n)).astype(complex)
    h = n // 2
    H = np.zeros((n, n), dtype=complex)
    H[:h, h:] = rng.normal(size=(h, n - h)) + 1j * rng.normal(size=(h, n - h))
    H[h:, :h] = rng.normal(size=(n - h, h)) + 1j * rng.normal(size=(n - h, h))
    return H


def check_sweep_files(rc: int, stdout: str, out_dir: str,
                      ref: oracles.SweepReference) -> str | None:
    """Check a sweep's exit code, stdout and the files it wrote."""
    base = os.path.join(out_dir, ref.tag)
    with open(base + "_events.json", "rb") as fh:
        events = fh.read()
    with open(base + "_trajectories.csv", "rb") as fh:
        csv = fh.read()
    return oracles.check_sweep(rc, stdout, events, csv, ref)


class Workload:
    name = ""
    # passes always measured, whatever --seconds says: enough that the
    # slowest kind of operation has more than 10 samples, so op_s.tail
    # reads a time of that kind on every run
    min_passes = 1
    trace_passes = 1
    tracer = None  # set while a traced pass runs

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.ops: list = []

    def pass_ops(self, k: int) -> list:
        ops = list(self.ops)
        seeded(self.seed, self.name, f"pass {k}").shuffle(ops)
        return ops

    def warmup_ops(self) -> list:
        return self.pass_ops(0)

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> str | None:
        raise NotImplementedError

    def label(self, op) -> str:
        return str(op)


class Discover(Workload):
    """``symmetry.discover`` on every bundled preset at the CLI's default
    parameters (4-site ones through the CLI's basis16 path) for all four
    relations, plus seeded bipartite and non-bipartite matrices at
    n = 16, 24, 32, one relation each per pass."""

    name = "discover"
    min_passes = 6
    trace_passes = 1
    SIZES = (16, 24, 32)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.inputs = []  # (label, H, uses basis16)
        for preset in PRESETS:
            m = preset_model(preset)
            self.inputs.append((preset, model.to_matrix(m), m.n_sites == 4))
        self.fixed = [(i, rel) for i in range(len(self.inputs))
                      for rel in RELATIONS]
        nrng = np.random.default_rng(seed)
        self.rotating = []  # (input index, first relation index)
        for n in self.SIZES:
            for bipartite in (True, False):
                self.rotating.append((len(self.inputs), int(nrng.integers(4))))
                kind = "bipartite" if bipartite else "dense"
                self.inputs.append((f"{kind}{n}", synthetic(nrng, n, bipartite),
                                    False))
        self.expected = {
            (i, rel): oracles.pair_count(H, rel)
            for i, (_, H, _) in enumerate(self.inputs) for rel in RELATIONS}

    def pass_ops(self, k):
        ops = self.fixed + [(i, RELATIONS[(r0 + k) % len(RELATIONS)])
                            for i, r0 in self.rotating]
        seeded(self.seed, self.name, f"pass {k}").shuffle(ops)
        return ops

    def run(self, op):
        i, rel = op
        _, H, basis16 = self.inputs[i]
        if basis16:
            return symmetry.discover(H, rel, basis=clifford.basis16(),
                                     labels=clifford.basis16_labels(),
                                     tol=DISCOVER_TOL)
        return symmetry.discover(H, rel, tol=DISCOVER_TOL)

    def check(self, op, ops):
        return oracles.check_discover(self.inputs[op[0]][1], ops,
                                      self.expected[op], DISCOVER_TOL,
                                      symmetry.check)

    def label(self, op):
        return f"{self.inputs[op[0]][0]} {op[1]}"


class CliCold(Workload):
    """One ``nhsym`` command per fresh ``python -m nhsym.cli`` process: the
    six sweeps (their files checked against the references), two ep
    commands, four declared-operator checks and four discovery checks on
    seeded presets."""

    name = "cli-cold"
    min_passes = 2
    trace_passes = 1

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.import_samples = []
        self.refs = {tag: oracles.SweepReference(tag) for tag in FIG_TAGS}
        for tag in FIG_TAGS:
            self.ops.append((["sweep", "--fig", tag, "--out", workdir],
                             {"rc": 0, "lines": [f"sweep {tag}: {SWEEP_STEPS} steps"],
                              "sweep": tag}))
        self.ops.append((["ep", "--family", "jordan2", "--bracket", "-0.1", "0.1"],
                         {"rc": 0, "lines": [], "ep": oracles.EP_EXPECT["jordan2"]}))
        self.ops.append((["ep", "--fig", "1b", "--bracket", "1", "2"],
                         {"rc": 0, "lines": [], "ep": oracles.EP_EXPECT["1b"]}))
        rng = seeded(seed, self.name, "presets")
        for preset in rng.sample(DECLARING, 4):
            p = preset_params(rng, preset)
            total = len(preset_model(preset, p).symmetry_hints)
            self.ops.append((["check"] + preset_argv(preset, p),
                             {"rc": 0, "lines": [f"{total}/{total} declared "
                                                 "operators pass"]}))
        for preset in rng.sample(PRESETS, 4):
            p = preset_params(rng, preset)
            rel = rng.choice(RELATIONS)
            dim = oracles.pair_count(model.to_matrix(preset_model(preset, p)), rel)
            self.ops.append((["check"] + preset_argv(preset, p) + ["--discover", rel],
                             {"rc": 0 if dim else 1,
                              "lines": [f"{rel} solution space dimension {dim}"]}))

    def warmup_ops(self):
        # one cheap command writes the bytecode caches and warms the file
        # cache; cold start itself is what this workload measures
        return [(["check", "--preset", "dirac4a"],
                 {"rc": 0, "lines": ["declared operators pass"]})]

    def run(self, op):
        argv = op[0]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "nhsym.cli", *argv]
        else:
            spans_path = os.path.join(self.workdir, "spans.json")
            cmd = [sys.executable, "-X", "importtime",
                   os.path.join(HERE, "clichild.py"), spans_path, *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=120)
        if self.tracer is not None:
            with open(spans_path, encoding="utf-8") as fh:
                self.tracer.absorb(json.load(fh), self.tracer.op)
            self.import_samples.append(tracing.parse_importtime(proc.stderr))
        return proc.returncode, proc.stdout

    def check(self, op, out):
        problem = oracles.check_cli(out[0], out[1], op[1])
        tag = op[1].get("sweep")
        if problem is None and tag is not None:
            problem = check_sweep_files(out[0], out[1], self.workdir,
                                        self.refs[tag])
        return problem

    def label(self, op):
        return "nhsym " + " ".join(op[0])


WORKLOADS = {w.name: w for w in (CliCold, Discover)}
