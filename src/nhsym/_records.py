"""Line-oriented record files: the one reader and writer behind model and
operator files.

Each line is a keyword and its fields; ``#`` starts a comment.  Errors
read ``path:line: message``, and values are written with 17 significant
digits, so a written file reads back exactly.
"""

from __future__ import annotations

import cmath

from .linalg import MAX_DENSE


def read(path, spec: dict, check=None) -> dict:
    """Read a record file whose keywords ``spec`` maps to their kinds:

    - ``int``: the dimension line, ``<keyword> N`` with N in 1..MAX_DENSE;
    - ``str``: a header valued by the rest of its line;
    - a tuple: for ``flags``, the tokens flags lines may carry; for another
      keyword, a header valued by one of its strings;
    - a count k: entry lines ``<keyword> I1 ... Ik RE IM``, indices below
      the dimension, one line per index tuple, finite values.

    Each header appears once; ``check(keyword, indices)``, when given,
    raises ValueError to reject an entry.  Returns each header's value
    (the dimension as an int), the set of ``flags``, and per entry keyword
    a dict from index tuple to complex value, in file order.
    """
    dim = next(key for key, kind in spec.items() if kind is int)
    rec: dict = {key: {} for key, kind in spec.items() if isinstance(kind, int)}
    rec["flags"] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                try:
                    _record(spec, dim, check, line, rec)
                except ValueError as exc:
                    raise ValueError(f"{path}:{ln}: {exc}") from None
    for key in spec:
        if key not in rec:
            raise ValueError(f"{path}: missing {key} line")
    return rec


def _record(spec: dict, dim: str, check, line: str, rec: dict) -> None:
    key, rest = (line.split(None, 1) + [""])[:2]
    fields = rest.split()
    kind = spec.get(key)
    if kind is None:
        raise ValueError(f"unknown keyword {key!r}")
    if key == "flags":
        for tok in fields:
            if tok not in kind:
                raise ValueError(f"unknown flag {tok!r}")
        rec[key].update(fields)
    elif isinstance(kind, int):
        if dim not in rec:
            raise ValueError(f"{key} line before {dim}")
        if len(fields) != kind + 2:
            raise ValueError(f"{key} line needs {kind + 2} fields, "
                             f"got {len(fields)}")
        try:
            idx = tuple(int(f) for f in fields[:kind])
            value = complex(float(fields[kind]), float(fields[kind + 1]))
        except ValueError:
            raise ValueError(f"bad {key} fields {fields!r}") from None
        if not cmath.isfinite(value):
            raise ValueError(f"non-finite {key} value {value}")
        shown = idx[0] if kind == 1 else idx
        if not all(0 <= i < rec[dim] for i in idx):
            raise ValueError(f"{key} {shown} out of range")
        if check is not None:
            check(key, idx)
        if idx in rec[key]:
            raise ValueError(f"duplicate {key} line for {shown}")
        rec[key][idx] = value
    elif key in rec:
        raise ValueError(f"duplicate {key} line")
    elif kind is int:
        try:
            rec[key] = n = int(rest)
        except ValueError:
            raise ValueError(f"{key} needs one integer, got {rest!r}") from None
        if not 1 <= n <= MAX_DENSE:
            raise ValueError(f"{key} {n} outside 1..{MAX_DENSE}")
    elif not rest or (kind is not str and rest not in kind):
        raise ValueError(f"bad {key} {rest!r}")
    else:
        rec[key] = rest


def write(path, header, flags, entries) -> None:
    """Write ``(keyword, value)`` header lines, one ``flags`` line if
    ``flags`` is not empty, and a line per ``(keyword, indices, value)``
    of ``entries``."""
    lines = [f"{key} {value}" for key, value in header]
    if flags:
        lines.append("flags " + " ".join(flags))
    lines += [f"{key} {' '.join(map(str, idx))} {v.real:.17g} {v.imag:.17g}"
              for key, idx, v in entries]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
