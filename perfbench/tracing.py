"""Span tracing around nhsym's layer boundaries, from outside the package.

Each public function is wrapped at the name its caller resolves (for
example ``nhsym.spectra.eig``, which is how ``spectra.sweep`` reaches
``linalg.eig``), so the package itself is unchanged.  A span is a list
``[name, start, end, parent, op, extra]``: ``parent`` is the index of the
enclosing span (-1 at top level), ``op`` the operation it ran under and
``extra`` a per-layer count taken from the call.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from collections import Counter, defaultdict

# points in the refinement scan spectra.sweep runs around each pair-distance
# dip; eig calls beyond one per step come in blocks of this size
REFINE_POINTS = 21

# builders reached from the CLI presets and the sweep protocols;
# bipartite_pseudo is left out because mirror_chain calls it, which would
# count one model twice
_BUILDERS = ("honeycomb_flake", "rt_wheel", "dirac4", "pyramid",
             "mirror_chain")


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


def _matrix_bytes(args, kwargs, result):
    rows, cols = args[0].shape  # computed, complex128 entries
    return rows * cols * 16


def _kernel(args, kwargs, result):
    return [len(result), args[0].shape[0] ** 2]


def _sweep_counts(args, kwargs, result):
    return [len(result.steps),
            sum(1 for ev in result.events if ev.kind == "ep_candidate")]


# (module, attribute, span name, extra)
BOUNDARIES = (
    ("nhsym.cli", "main", "cli.main", None),
    ("nhsym.spectra", "eig", "linalg.eig", None),
    ("nhsym.spectra", "multiplicities", "linalg.multiplicities", None),
    ("nhsym.spectra", "linear_sum_assignment", "spectra.lsa", None),
    ("nhsym.spectra", "sweep", "spectra.sweep", _sweep_counts),
    ("nhsym.spectra", "classify_spectrum", "spectra.classify_spectrum", None),
    ("nhsym.spectra", "to_csv", "spectra.to_csv", _csv_bytes),
    ("nhsym.spectra", "ep_locate", "spectra.ep_locate", None),
    ("nhsym.model", "to_matrix", "model.to_matrix", None),
    ("nhsym.symmetry", "nullspace", "linalg.nullspace", _matrix_bytes),
    ("nhsym.symmetry", "check", "symmetry.check", None),
    ("nhsym.symmetry", "discover", "symmetry.discover", _kernel),
) + tuple(("nhsym.model", b, "model.build", None) for b in _BUILDERS)


class Tracer:
    """Collects spans while installed and ``active``."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = True
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, extra):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.op, None]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        for module, attr, name, extra in BOUNDARIES:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original, extra))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def absorb(self, spans, op: int) -> None:
        """Append spans recorded by another process under operation ``op``."""
        base = len(self.spans)
        for name, start, end, parent, _, extra in spans:
            self.spans.append([name, start, end,
                               parent + base if parent >= 0 else -1, op, extra])


def layer_metrics(spans) -> dict:
    """Per-layer counts and self times from a list of spans.

    Self time is a span's duration minus the durations of its direct
    children.  Returns ``{metric: (value, unit)}``.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    extras: defaultdict = defaultdict(list)
    eig_under: Counter = Counter()
    for i, (name, start, end, parent, _, extra) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_time[i]
        if extra is not None:
            extras[name].append(extra)
        if name == "linalg.eig" and parent >= 0:
            eig_under[spans[parent][0]] += 1

    sweeps = extras["spectra.sweep"]
    refine = eig_under["spectra.sweep"] - sum(steps for steps, _ in sweeps)
    dips = refine / REFINE_POINTS
    candidates = sum(c for _, c in sweeps)
    kernels = extras["symmetry.discover"]
    n2 = sum(k for _, k in kernels)

    out = {}
    for name in ("linalg.eig", "model.build", "spectra.lsa", "symmetry.check"):
        out[f"{name}.calls"] = (calls[name], "count")
    for name in ("linalg.eig", "model.build", "model.to_matrix", "spectra.lsa",
                 "spectra.classify_spectrum", "spectra.sweep",
                 "spectra.to_csv", "cli.main", "spectra.ep_locate",
                 "linalg.multiplicities", "linalg.nullspace",
                 "symmetry.discover", "symmetry.check"):
        out[f"{name}.self_s"] = (self_s[name], "s")
    out["spectra.to_csv.bytes"] = (sum(extras["spectra.to_csv"]), "bytes")
    out["spectra.sweep.refine_eig_calls"] = (refine, "count")
    out["spectra.sweep.ep_confirm_ratio"] = (
        candidates / dips if dips else 0.0, "ratio")
    out["spectra.ep_locate.evals"] = (eig_under["spectra.ep_locate"], "count")
    out["linalg.nullspace.matrix_bytes"] = (
        sum(extras["linalg.nullspace"]), "bytes")
    out["symmetry.discover.kernel_ratio"] = (
        sum(d for d, _ in kernels) / n2 if n2 else 0.0, "ratio")
    return out


IMPORT_MODULES = {"nhsym": "import.nhsym_s",
                  "scipy.optimize": "import.scipy_optimize_s",
                  "scipy.linalg": "import.scipy_linalg_s"}


def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds per module of interest from ``-X importtime``.

    Lines read ``import time: self [us] | cumulative | imported package``;
    a module's cumulative time counts where it was first imported.
    """
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        module = fields[2].strip()
        if module in IMPORT_MODULES:
            out[IMPORT_MODULES[module]] = int(fields[1]) / 1e6
    return out


def median_imports(samples) -> dict:
    """Median over several ``parse_importtime`` results, as metrics."""
    return {metric: (statistics.median(s[metric] for s in samples), "s")
            for metric in IMPORT_MODULES.values()}
