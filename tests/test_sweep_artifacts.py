"""The six ``sweep --fig`` runs write the committed reference artifacts
(``perfbench/reference/sweep/``) byte for byte."""

import gzip
import pathlib

import pytest

from nhsym import cli

REFERENCE = (pathlib.Path(__file__).resolve().parents[1]
             / "perfbench" / "reference" / "sweep")


def _first_difference(got: bytes, want: bytes) -> str:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for k, (a, b) in enumerate(zip(got_lines, want_lines), 1):
        if a != b:
            return f"line {k}: {a!r} != {b!r}"
    return f"{len(got_lines)} lines != {len(want_lines)} lines"


@pytest.mark.parametrize("tag", cli.FIG_TAGS)
def test_sweep_files_match_reference(tag, tmp_path, capsys):
    assert cli.main(["sweep", "--fig", tag, "--out", str(tmp_path)]) == 0
    events = (tmp_path / f"{tag}_events.json").read_bytes()
    want = (REFERENCE / f"{tag}_events.json").read_bytes()
    assert events == want, _first_difference(events, want)
    csv = (tmp_path / f"{tag}_trajectories.csv").read_bytes()
    want = gzip.decompress(
        (REFERENCE / f"{tag}_trajectories.csv.gz").read_bytes())
    assert csv == want, _first_difference(csv, want)
