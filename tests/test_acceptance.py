"""Acceptance suite: every check of ``fockfuse.verify.CHECKS`` at fixed seeds.

``pytest tests/test_acceptance.py -v`` lists one line per check, named as in
``fockfuse verify``, plus the two timing gates.
"""

import time

import pytest

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
