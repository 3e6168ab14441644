"""Output checks that do not lean on how nhsym computes its answers.

Every check returns None when the output is right and a one-line
description of the first problem otherwise.  The sweep reference
artifacts under ``reference/`` were written by ``make_reference.py``.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import re

import numpy as np

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference")

# eigenvalues closer than this (relative to ||H||_F) count as a pair
PAIR_RTOL = 1e-7
# a located exceptional point must sit this close to the known parameter
EP_PARAM_TOL = 1e-7
# trajectory entries may differ from the reference by this much, relative
# to the largest eigenvalue modulus of the sweep: rounding differences
# pass, a wrong mode order does not
TRAJ_RTOL = 1e-9


def pair_count(H, relation: str) -> int:
    """Dimension of a relation's solution space for diagonalizable H.

    For H = V diag(lam) V^-1 each relation reduces to X_ij (lam_i + mu_j)
    = 0 (or lam_i - mu_j for ``bosonic``), so the dimension is the number
    of index pairs whose combination vanishes: lam_i + lam_j for chiral
    and pseudo_chiral, lam_i + conj(lam_j) for nhph, lam_i - conj(lam_j)
    for bosonic.
    """
    H = np.asarray(H, dtype=complex)
    lam = np.linalg.eigvals(H)
    mu = lam if relation in ("chiral", "pseudo_chiral") else np.conj(lam)
    sign = -1.0 if relation == "bosonic" else 1.0
    gap = np.abs(lam[:, None] + sign * mu[None, :])
    return int(np.count_nonzero(gap <= PAIR_RTOL * max(np.linalg.norm(H), 1.0)))


def check_discover(H, ops, expected_dim: int, tol: float, residual) -> str | None:
    """Dimension equals the pair count; each operator passes its relation.

    ``residual`` is ``symmetry.check``.
    """
    if len(ops) != expected_dim:
        return f"dimension {len(ops)} != eigenvalue-pair count {expected_dim}"
    for i, op in enumerate(ops):
        r = residual(H, op)
        if not r <= tol:
            return f"operator {i} residual {r:.3g} > {tol:g}"
    return None


# (found, parameter, order) of the exceptional points the CLI is asked for
EP_EXPECT = {
    "jordan2": (True, 0.0, 2),
    "1b": (True, math.sqrt(2.0), 3),
}


def check_ep(found: bool, parameter: float, order: int, expect) -> str | None:
    want_found, want_param, want_order = expect
    if found != want_found:
        return f"found={found}, expected {want_found}"
    if not found:
        return None
    if not abs(parameter - want_param) <= EP_PARAM_TOL:
        return f"parameter {parameter!r} != {want_param!r}"
    if order != want_order:
        return f"order {order} != {want_order}"
    return None


class SweepReference:
    """Events and trajectories of one protocol, as generated at 400 steps."""

    def __init__(self, tag: str):
        self.tag = tag
        base = os.path.join(REFERENCE, "sweep", tag)
        with open(base + "_events.json", "rb") as fh:
            self.events = json.load(fh)
        with gzip.open(base + "_trajectories.csv.gz", "rb") as fh:
            self.csv = fh.read()
        self.rows = _parse_csv(self.csv.decode("ascii"))
        self.scale = max(max(abs(complex(r[2], r[3])) for r in self.rows), 1.0)

    def events_line(self) -> str:
        counts: dict = {}
        for ev in self.events:
            counts[ev["kind"]] = counts.get(ev["kind"], 0) + 1
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        return f"events: {len(self.events)}" + (f" ({summary})" if counts else "")


def _parse_csv(text: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != "param,mode_id,re,im,flags":
        raise ValueError("bad trajectory header")
    rows = []
    for line in lines[1:]:
        p, mode, re_, im, flags = line.split(",")
        rows.append((float(p), int(mode), float(re_), float(im), flags))
    return rows


def compare_trajectories(csv: bytes, ref: SweepReference) -> str | None:
    if csv == ref.csv:
        return None
    try:
        got = _parse_csv(csv.decode("ascii"))
    except (UnicodeDecodeError, ValueError) as exc:
        return f"unreadable trajectories: {exc}"
    want = ref.rows
    if len(got) != len(want):
        return f"{len(got)} trajectory rows != {len(want)}"
    atol = TRAJ_RTOL * ref.scale
    for k, (g, w) in enumerate(zip(got, want)):
        if g[1] != w[1] or g[4] != w[4]:
            return f"row {k + 1}: mode/flags {g[1]},{g[4]!r} != {w[1]},{w[4]!r}"
        if max(abs(g[0] - w[0]), abs(g[2] - w[2]), abs(g[3] - w[3])) > atol:
            return f"row {k + 1}: {g[:4]} differs from {w[:4]} by more than {atol:.3g}"
    return None


def check_sweep(rc: int, stdout: str, events: bytes, csv: bytes,
                ref: SweepReference) -> str | None:
    if rc != 0:
        return f"exit code {rc} != 0"
    if "VIOLATED" in stdout:
        return "declared spectrum symmetry violated"
    if ref.events_line() not in stdout:
        return f"stdout lacks {ref.events_line()!r}"
    if json.loads(events) != ref.events:
        return "events differ from the reference"
    return compare_trajectories(csv, ref)


_EP_LINE = re.compile(r"exceptional point at parameter (\S+)")
_ORDER = re.compile(r"order (\d+)")


def check_cli(rc: int, stdout: str, expect: dict) -> str | None:
    """Exit code and key stdout lines of one command.

    ``expect`` holds ``rc``, ``lines`` (substrings that must appear) and,
    for ``ep`` commands, ``ep`` = (found, parameter, order).
    """
    if rc != expect["rc"]:
        return f"exit code {rc} != {expect['rc']}"
    for line in expect["lines"]:
        if line not in stdout:
            return f"stdout lacks {line!r}"
    if expect.get("ep") is not None:
        m, o = _EP_LINE.search(stdout), _ORDER.search(stdout)
        if m is None or o is None:
            return "no exceptional-point line"
        return check_ep(True, float(m.group(1)), int(o.group(1)), expect["ep"])
    return None
