"""Acceptance suite: every check of ``fockfuse.verify.CHECKS`` at fixed seeds.

``pytest tests/test_acceptance.py -v`` lists one line per check, named as in
``fockfuse verify``, plus the two timing gates and one line per library call
that must be refused with a one-line error.
"""

import re
import time

import pytest

from fockfuse import elements, rails, verify
from fockfuse.circuits import run_fusion
from fockfuse.cli import main
from fockfuse.distinguishability import ProbabilityMatrix, fit_p, indistinguishable_fraction
from fockfuse.verify import CHECKS, check_fusion_correctness, run_verification

SEEDS = (1001, 1002, 1003, 1004, 1005)


@pytest.mark.parametrize("check", [check for _, check in CHECKS], ids=[name for name, _ in CHECKS])
def test_check(check):
    failures = {seed: detail for seed in SEEDS if (detail := check(seed)) is not None}
    assert not failures


def test_criterion_1_ideal_fusion_correctness():
    # 20 random inputs per seed: 100 fusions, every branch fed forward
    started = time.monotonic()
    assert all(check_fusion_correctness(seed) is None for seed in SEEDS)
    assert time.monotonic() - started < 5.0


def test_criterion_10_verify_runtime():
    started = time.monotonic()
    assert run_verification(seed=2026, out=lambda line: None) == 0
    assert time.monotonic() - started < 60.0


def test_a_failing_check_fails_the_run(monkeypatch, capsys):
    """A check's failure detail is printed, counted, and makes ``fockfuse
    verify`` exit 1."""
    monkeypatch.setattr(verify, "CHECKS", (("holds", lambda seed: None), ("breaks", lambda seed: "boom")))
    lines = []
    assert run_verification(seed=1, out=lines.append) == 1
    assert "FAIL breaks: boom" in lines
    assert lines[-1].startswith("1/2 checks passed ")
    assert main(["verify"]) == 1
    assert "FAIL breaks: boom\n1/2 checks passed " in capsys.readouterr().out


TWO_PHOTONS = rails.rail_ket(("c0", "c1"))
NEGATIVE = [[0.25] * 4 for _ in range(3)] + [[0.25, 0.25, 0.25, -0.25]]


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: run_fusion(), ValueError, "psi and phi amplitude pairs are required", id="run_fusion-no-input"),
    pytest.param(
        lambda: run_fusion((1, 0), (1, 0), entangled=(1, 0, 0, 0)), ValueError,
        "give either psi/phi or an entangled input", id="run_fusion-both-inputs",
    ),
    pytest.param(
        lambda: rails.cnot(rails.rail_ket(("c0", "c0")), ("c0", "c1"), ("t0", "t1")), ValueError,
        "rail occupancy outside the protocol space: ((('c0', '', ''), 2),)", id="cnot-two-photons-on-a-rail",
    ),
    pytest.param(
        lambda: rails.measure_plus_minus(TWO_PHOTONS, ("c0", "c1")), ValueError,
        "erased qubit must carry exactly one photon", id="measure_plus_minus-two-photons",
    ),
    pytest.param(
        lambda: rails.erase_to_zero_port(TWO_PHOTONS, ("c0", "c1")), ValueError,
        "erased qubit must carry at most one photon", id="erase_to_zero_port-two-photons",
    ),
    pytest.param(
        lambda: indistinguishable_fraction(1.5), ValueError,
        "indistinguishability parameter p=1.5 outside [0, 1]", id="indistinguishable_fraction-above-one",
    ),
    pytest.param(
        lambda: ProbabilityMatrix.from_csv(",H,V\nH,1,0\nV,0,1\n", "i"), ValueError,
        "expected a header line plus 4 data rows", id="from_csv-three-lines",
    ),
    pytest.param(lambda: fit_p(NEGATIVE), ValueError, "observed matrix must be non-negative", id="fit_p-negative"),
    pytest.param(
        lambda: elements.block(object()), TypeError, "unknown optical element <object object at ",
        id="block-not-an-element",
    ),
])
def test_library_call_is_refused(call, error, message):
    with pytest.raises(error, match="^" + re.escape(message)):
        call()
