"""Command-line front end.

Three subcommands:

``check``
    Verify a model's declared symmetry operators, one supplied operator
    (``--op``), or run operator discovery for a relation (``--discover``).
``sweep``
    Run a named figure protocol, verify its declared spectrum
    reflections at every step, and write trajectory CSV plus event JSON.
``ep``
    Locate an exceptional point of a one-parameter family in a bracket.

Exit codes: 0 success, 1 scientific negative (relation failed, empty
discovery, no exceptional point), 2 usage or input error, 3 numerical
failure (an eigendecomposition that misses its residual bound, or a
computed operator that fails verification).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import clifford, model as model_mod, spectra, symmetry

# by --preset name; each entry looks its builder up in model_mod when it runs
PRESETS = {
    "dirac4a": lambda a: model_mod.dirac4("a", a.g1, a.g2),
    "dirac4b": lambda a: model_mod.dirac4("b", a.g1, a.g2),
    "rt-wheel": lambda a: model_mod.rt_wheel(a.beta, a.g1, a.g2),
    "pyramid-nochiral": lambda a: model_mod.pyramid("nochiral", a.g1, a.g2,
                                                    a.g3),
    "pyramid-chiral": lambda a: model_mod.pyramid("chiral", a.g1, a.g2, a.g3),
    "flake": lambda a: model_mod.honeycomb_flake(a.g, a.tau),
    "chain": lambda a: model_mod.mirror_chain(a.delta),
}
FIG_TAGS = tuple(spectra.PROTOCOLS)


def _complex(text: str) -> complex:
    try:
        return clifford._read_complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"number must be finite, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from None
    if not (np.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be a finite positive number, got {text!r}")
    return tol


class _Parser(argparse.ArgumentParser):
    """Reads ``-1e-1``, ``-.5`` and ``-1-0.5i`` as values, where argparse
    alone takes only ``-1`` and ``-0.5``; the subcommands share the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no option name starts with a digit or a dot
        self._negative_number_matcher = re.compile(r"^-[\d.]")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nhsym",
        description="symmetry checks, discovery, and spectra for "
                    "non-Hermitian tight-binding models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", help="verify or discover symmetry operators")
    src = pc.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=tuple(PRESETS), help="bundled model")
    src.add_argument("--file", help="model file to load")
    pc.add_argument("--g1", type=_complex, default=1 + 0j)
    pc.add_argument("--g2", type=_complex, default=0.5 + 0j)
    pc.add_argument("--g3", type=_complex, default=0.8 + 0j)
    pc.add_argument("--beta", type=_complex, default=0.75 + 0j)
    pc.add_argument("--g", type=_finite, default=1.0, help="flake coupling")
    pc.add_argument("--tau", type=_finite, default=0.0, help="flake gain/loss")
    pc.add_argument("--delta", type=_finite, default=0.0, help="chain detuning")
    pc.add_argument("--op", help="operator: generator expression or file")
    pc.add_argument("--kind", choices=symmetry.KINDS,
                    default=symmetry.LINEAR_ANTICOMMUTE,
                    help="relation kind for an expression --op")
    pc.add_argument("--discover", choices=symmetry.DISCOVER_RELATIONS,
                    help="find all operators of this relation")
    pc.add_argument("--tol", type=_tolerance, default=None,
                    help="pass threshold (default 1e-10; discovery 1e-9)")

    ps = sub.add_parser("sweep", help="run a figure protocol")
    ps.add_argument("--fig", choices=FIG_TAGS, required=True)
    ps.add_argument("--steps", type=int, default=spectra.SWEEP_STEPS)
    ps.add_argument("--out", default=".", help="output directory")
    ps.add_argument("--tol", type=_tolerance, default=spectra.CLASSIFY_TOL,
                    help="spectrum classification tolerance")

    pe = sub.add_parser("ep", help="locate an exceptional point")
    fam = pe.add_mutually_exclusive_group(required=True)
    fam.add_argument("--family", choices=("jordan2",),
                     help="built-in matrix family")
    fam.add_argument("--fig", choices=FIG_TAGS,
                     help="use a figure protocol's family")
    pe.add_argument("--bracket", type=_finite, nargs=2, required=True,
                    metavar=("LO", "HI"))
    pe.add_argument("--target", type=_complex, default=0j,
                    help="coalescence point in the eigenvalue plane")
    pe.add_argument("--tol", type=_tolerance, default=spectra.EP_FOUND_TOL,
                    help="spread below which the point counts as found")
    return parser


def _resolve_model(args) -> model_mod.Model:
    if args.file is not None:
        return model_mod.load_model(args.file)
    return PRESETS[args.preset](args)


def _load_operator(source: str, kind: str, n_sites: int) -> symmetry.SymOp:
    if os.path.exists(source):
        return symmetry.load_op(source)
    if n_sites != 4:
        raise ValueError(
            f"operator expression needs a 4-site model (have {n_sites} sites); "
            "pass an operator file instead"
        )
    return symmetry.SymOp(clifford.expr_to_matrix(source), kind, label=source)


def cmd_check(args) -> int:
    m = _resolve_model(args)
    H = model_mod.to_matrix(m)

    if args.discover is not None:
        tol = symmetry.DISCOVER_TOL if args.tol is None else args.tol
        if m.n_sites == 4:
            basis = clifford.basis16()
            labels = clifford.basis16_labels()
        else:
            basis = labels = None
        ops = symmetry.discover(H, args.discover, basis=basis, labels=labels,
                                tol=tol)
        print(f"{m.name}: {args.discover} solution space dimension {len(ops)}")
        for i, op in enumerate(ops):
            shown = op.label if op.label else f"operator {i}"
            print(f"  {shown}  residual {symmetry.check(H, op):.3e}")
        return 0 if ops else 1

    tol = symmetry.PASS_TOL if args.tol is None else args.tol
    if args.op is not None:
        op = _load_operator(args.op, args.kind, m.n_sites)
        r = symmetry.check(H, op)
        ok = r <= tol
        shown = op.label if op.label else args.op
        print(f"{m.name}: {op.kind} {shown}  residual {r:.3e}  "
              f"{'pass' if ok else 'FAIL'}")
        return 0 if ok else 1

    if not m.symmetry_hints:
        raise ValueError(
            f"{m.name}: no declared symmetries; use --op or --discover")
    failures = 0
    for hint in m.symmetry_hints:
        op = symmetry.named_operator(m, hint)
        r = symmetry.check(H, op)
        ok = r <= tol
        failures += 0 if ok else 1
        print(f"  {hint:<44} residual {r:.3e}  {'pass' if ok else 'FAIL'}")
    total = len(m.symmetry_hints)
    print(f"{m.name}: {total - failures}/{total} declared operators pass "
          f"(tol {tol:g})")
    return 0 if failures == 0 else 1


def cmd_sweep(args) -> int:
    proto = spectra.PROTOCOLS[args.fig]
    result = spectra.sweep(proto.matrix_at, proto.lo, proto.hi,
                           n_steps=args.steps)
    worst = {axis: max(spectra.reflection_defect(step.eigenvalues, axis)
                       for step in result.steps)
             for axis in proto.symmetric}
    print(f"sweep {proto.tag}: {args.steps} steps of {proto.param_name} "
          f"in [{proto.lo:g}, {proto.hi:g}]")
    bad = 0
    for axis in proto.symmetric:
        ok = worst[axis] <= args.tol
        bad += 0 if ok else 1
        print(f"  {axis} spectrum symmetry: max defect {worst[axis]:.3e}  "
              f"{'ok' if ok else 'VIOLATED'}")
    counts = {}
    for ev in result.events:
        counts[ev.kind] = counts.get(ev.kind, 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    print(f"  events: {len(result.events)}" + (f" ({summary})" if counts else ""))
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, f"{proto.tag}_trajectories.csv")
    spectra.to_csv(result, csv_path)
    events_path = os.path.join(args.out, f"{proto.tag}_events.json")
    payload = [{"step": ev.step, "param": ev.param, "kind": ev.kind}
               for ev in result.events]
    with open(events_path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"  wrote {csv_path}")
    print(f"  wrote {events_path}")
    return 0 if bad == 0 else 1


def cmd_ep(args) -> int:
    if args.family == "jordan2":
        family = spectra.jordan2
        name = "jordan2"
    else:
        proto = spectra.PROTOCOLS[args.fig]
        family = proto.matrix_at
        name = f"fig {proto.tag} ({proto.param_name})"
    report = spectra.ep_locate(family, args.bracket, target=args.target,
                               found_tol=args.tol)
    if not report.found:
        print(f"{name}: no exceptional point in "
              f"[{args.bracket[0]:g}, {args.bracket[1]:g}] "
              f"(best spread {report.spread:.3e} at {report.parameter:.12g})")
        return 1
    print(f"{name}: exceptional point at parameter {report.parameter:.12g}")
    # the counts fix the blocks unless a second one exceeds 1
    blocks = report.blocks
    shown = (", Jordan blocks " + ", ".join(map(str, blocks))
             if len(blocks) > 1 and blocks[1] > 1 else "")
    print(f"  eigenvalue {clifford._format_complex(report.value)}, "
          f"algebraic {report.algebraic}, geometric {report.geometric}, "
          f"order {report.order}{shown}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_ep(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # linalg.ConvergenceError included
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
