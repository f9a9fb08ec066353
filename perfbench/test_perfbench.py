"""Tests of the benchmark itself: determinism, oracle strength, metric names.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fockfuse import circuits, states  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _signature(workload):
    return [(op.kind, repr(op.params)) for op in workload.ops]


@pytest.mark.parametrize("name", sorted(workloads.MAKERS))
def test_same_seed_gives_identical_op_sequence(name):
    first = _signature(workloads.MAKERS[name](7))
    assert first == _signature(workloads.MAKERS[name](7))
    assert first != _signature(workloads.MAKERS[name](8))


def _traced_round_counts(seed):
    workload = workloads.make_apparatus(seed)
    workloads.warm_up(workload)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        tracer.active = True
        for op in workload.ops:
            tracer.call(tracing.OP, op.run)
    finally:
        tracer.active = False
        tracer.uninstall()
    calls = {name: agg["calls"] for name, agg in tracer.summary().items()}
    return calls, dict(tracer.counters), dict(tracer.maxima)


def test_same_seed_gives_identical_counts():
    first = _traced_round_counts(5)
    assert first == _traced_round_counts(5)
    calls, counters, _ = first
    assert calls["op"] == sum(count for _, count in workloads.APPARATUS_MIX)
    assert calls["states.substituted"] > 0 and counters["states.substituted.terms_in"] > 0


def test_uninstall_restores_every_patched_name():
    before = (circuits.apply_element, circuits.run_circuit, states.PureState.substituted)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert circuits.apply_element is not before[0]
    tracer.uninstall()
    assert (circuits.apply_element, circuits.run_circuit, states.PureState.substituted) == before


# -- every oracle rejects a perturbed result ----------------------------------------

WRONG_PHOTON = states.PureState.vacuum().create("t1", "V")


def _heralded_perturbations(out):
    probs, corrected, fids = out
    yield [probs[0] + 1e-6, *probs[1:]], corrected, fids
    yield probs, [WRONG_PHOTON, *corrected[1:]], fids
    yield probs, corrected, [fids[0] - 1e-6, *fids[1:]]


def _perturbations(kind, out):
    if kind in ("fusion_product", "fusion_entangled", "fission"):
        yield from _heralded_perturbations(out)
        if kind != "fission":
            probs, corrected, fids = out
            # a different branch state: the rail oracle and fidelity both see it
            yield probs, [circuits.apply_sigma_x(corrected[0], "t1"), *corrected[1:]], fids
    elif kind == "fusion_tagged":
        # move 1% of the row's weight onto its smallest entry
        bumped = list(out)
        bumped[int(np.argmin(out))] += 0.01 * sum(out)
        yield bumped
    elif kind == "rail_fuse":
        plus, minus, p_plus, p_minus = out
        yield plus[::-1], minus, p_plus, p_minus
        yield plus, minus, p_plus + 1e-6, p_minus
    elif kind == "fuse_iterated":
        yield tuple(out)[::-1]
    elif kind == "rail_fission":
        state, probability = out
        yield state, probability + 1e-6
        yield states.PureState.vacuum().create("c_0", "").create("t_0", ""), probability
    elif kind.startswith("mesh_n"):
        probabilities, round_trip = out
        yield [probabilities[0] + 1e-6, *probabilities[1:]], round_trip
        yield probabilities, False
    elif kind == "source_model":
        simulated, closed, fitted = out
        bumped = [list(row) for row in simulated]
        bumped[0][0] += 1e-6
        yield bumped, closed, fitted
        yield simulated, closed, min(1.0, fitted + 0.2) if fitted < 0.5 else fitted - 0.2
    else:
        raise AssertionError(f"no perturbation for {kind}")


def _one_op_per_kind():
    ops = {}
    for workload in (
        workloads.make_apparatus(3),
        workloads.make_source_model(3),
        workloads.make_mesh(3),
    ):
        for op in workload.ops:
            if op.kind not in ("mesh_n4", "mesh_n5", "mesh_n6"):
                ops.setdefault(op.kind, op)
    return sorted(ops.items())


@pytest.mark.parametrize("kind,op", _one_op_per_kind(), ids=lambda x: x if isinstance(x, str) else "")
def test_oracle_accepts_result_and_rejects_perturbation(kind, op):
    out = op.run()
    assert op.check(out) is None
    variants = list(_perturbations(kind, out))
    assert variants
    for bad in variants:
        assert op.check(bad) is not None


def test_cli_oracle_rejects_bad_exit_and_perturbed_report():
    workload = workloads.make_cli(3)
    op = next(o for o in workload.ops if o.kind == "cli_fuse")
    code, out, err = op.run()
    assert code == 0 and op.check((code, out, err)) is None
    report = json.loads(out)
    report["tables"]["heralded branches"][2]["probability"] += 1e-6
    assert op.check((0, json.dumps(report), "")) is not None
    assert op.check((2, "", "error: boom")) is not None
    assert op.check((0, "not json", "")) is not None


def _perturb_report(kind, tables):
    if kind == "fuse":
        tables["fused amplitudes (t1H, t1V, t2H, t2V)"].reverse()
    elif kind == "abstract-fuse":
        tables["plus branch"]["probability"] += 1e-6
    elif kind == "abstract-fission":
        tables["success branch"]["probability"] += 1e-6
    elif kind == "basis-scan":
        tables["simulated"]["entries"][0][0] += 1e-6
    elif kind == "fidelity-curve":
        tables["fidelity vs p"][0]["simulated"] += 1e-6
    elif kind == "fit-p":
        p = tables["fit"]["p"]
        tables["fit"]["p"] = p - 0.2 if p > 0.5 else p + 0.2
    else:
        tables["detection outcomes"][0]["probability"] += 1e-6


@pytest.mark.parametrize(
    "kind",
    ["fuse", "abstract-fuse", "abstract-fission", "basis-scan", "fidelity-curve", "fit-p", "run-fusion", "run-fission"],
)
def test_cli_independent_check_rejects_perturbed_report(kind):
    workloads.WORK.mkdir(exist_ok=True)
    args, _, independent = workloads._cli_command(kind, np.random.default_rng(4), 4, 0)
    code, out, err, _, _ = workloads.spawn([sys.executable, "-m", "fockfuse.cli", *args])
    assert code == 0, err
    tables = json.loads(out)["tables"]
    assert independent(tables) is None
    _perturb_report(kind, tables)
    assert independent(tables) is not None


def test_ryser_matches_permutation_sum():
    import itertools

    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    brute = sum(
        np.prod([a[i, p[i]] for i in range(4)]) for p in itertools.permutations(range(4))
    )
    assert abs(oracles.ryser_permanent(a) - brute) < 1e-12


def test_mesh_transfer_matrix_is_unitary():
    steps = workloads.mesh_steps(5, np.random.default_rng(1))
    u = oracles.mesh_transfer_matrix(5, steps)
    assert np.allclose(u.conj().T @ u, np.eye(10), atol=1e-12)


# -- metric names --------------------------------------------------------------------


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_end_to_end_metrics_match_benchmark_json():
    m = run.Measurement()
    m.latencies[False] = [0.001 * (k + 1) for k in range(30)]
    m.best = m.latencies[False][:15]
    m.round_rates = [10.0, 11.0]
    m.attempted = 30
    m.wall[False] = list(m.latencies[False])
    m.setup_cpu = [0.3, 0.31, 0.29]
    m.setup_wall = list(m.setup_cpu)
    metrics, _ = run.end_to_end(m, 40_000)
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


def test_layer_metrics_match_benchmark_json():
    tracer = tracing.Tracer()
    metrics = tracing.layer_metrics({}, tracer.counters, tracer.maxima, 1, 0.0)
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("per_layer")


def test_benchmark_json_workloads_are_runnable():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.MAKERS)


def test_tail_latency_leaves_ten_samples_beyond():
    lat = list(range(100))
    value, percentile = run.tail_latency(lat)
    assert sum(1 for x in lat if x > value) == 10
    assert percentile == 90.0
