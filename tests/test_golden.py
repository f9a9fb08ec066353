"""CLI reports against committed golden files, byte for byte.

Each case runs twice in one process: the first run may compile circuits and
expand input monomials, the second reuses what the first cached, and both
must print exactly the committed report (full-precision ``--dump-state``
floats included).  ``verify`` is left out because it prints wall time.

Regenerate the files (only when a report is meant to change) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
from pathlib import Path

import pytest

from fockfuse.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = {
    "fuse.txt": ["fuse", "--psi=0.6,0.8j", "--phi=-0.28+0.96j,1", "--dump-state"],
    "fuse.json": ["fuse", "--psi=1,-1", "--phi=0.3-0.2j,0.7", "--dump-state", "--format", "json"],
    "fuse-entangled.json": [
        "fuse", "--entangled=0.5,-0.1+0.3j,0.2,0.7j", "--dump-state", "--format", "json",
    ],
    "fission.txt": ["fission", "--amps=-1.3-1.8j,0.4,0.2,1", "--dump-state"],
    "abstract-fuse.txt": ["abstract-fuse", "--psi=0.6,0.8", "--phi=1j,-1", "--vacuum-amp=-0.5+0.8j"],
    "abstract-fission.json": ["abstract-fission", "--amps=0.1,0.2j,-0.3,0.4", "--format", "json"],
    "run-fusion.txt": [
        "run", "fusion.lop", "--bind", "psi=0.6,0.8", "--bind", "phi=1,1j", "--dump-state",
    ],
    "run-fission.json": [
        "run", "fission.lop", "--bind", "input=0.5,0.5j,-0.5,0.5", "--dump-state",
        "--format", "json",
    ],
    **{
        f"basis-scan-{key}.{fmt}": ["basis-scan", "--basis", key, "--p", "0.37", "--format", fmt]
        for key in ("i", "ii", "iii", "iv")
        for fmt in ("json", "csv")
    },
    "basis-scan-ii.txt": ["basis-scan", "--basis", "ii", "--p", "0.37"],
    "fidelity-curve.json": [
        "fidelity-curve", "--p-min", "0.2", "--p-max", "0.9", "--steps", "3", "--format", "json",
    ],
}


def report(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    expected = (GOLDEN / name).read_text()
    assert report(CASES[name]) == expected
    assert report(CASES[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / name).write_text(report(argv))
