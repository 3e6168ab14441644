"""Write the reference artifacts the sweep oracle compares against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes ``reference/sweep/<tag>_events.json`` and
``<tag>_trajectories.csv.gz`` from ``nhsym sweep --fig <tag>`` at 400
steps.
Rerun only when nhsym's outputs are meant to change, and say so.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import gzip  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

from nhsym import cli  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

def main() -> None:
    out = os.path.join(oracles.REFERENCE, "sweep")
    os.makedirs(out, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="_work-", dir=workloads.HERE)
    try:
        for tag in workloads.FIG_TAGS:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["sweep", "--fig", tag, "--out", tmp])
            if rc != 0:
                raise SystemExit(f"sweep {tag} exited with {rc}")
            shutil.copyfile(os.path.join(tmp, f"{tag}_events.json"),
                            os.path.join(out, f"{tag}_events.json"))
            with open(os.path.join(tmp, f"{tag}_trajectories.csv"), "rb") as fh:
                data = fh.read()
            with open(os.path.join(out, f"{tag}_trajectories.csv.gz"), "wb") as fh:
                fh.write(gzip.compress(data, compresslevel=9, mtime=0))
    finally:
        shutil.rmtree(tmp)


if __name__ == "__main__":
    main()
