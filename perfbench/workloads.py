"""The four seeded workloads and their ops.

A workload is one round of ops: a fixed multiset of op kinds whose order
and parameters are drawn from the seed.  The runner repeats the round until
the measuring time is spent, so every run of a seed does identical work and
per-round counts repeat exactly.  Every op is called through the public
``fockfuse`` modules (``circuits.run_fusion``, not a local alias) so the
traced run sees each layer boundary.  Each op returns its raw results; its
``check`` compares them with an independent oracle outside the timed region.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

from fockfuse import circuits, dsl, rails, states  # noqa: E402
from fockfuse import distinguishability as dist  # noqa: E402
from fockfuse import verify as fverify  # noqa: E402
from fockfuse.states import H, V  # noqa: E402


@dataclass
class Op:
    kind: str
    params: tuple
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    name: str
    ops: list[Op] = field(default_factory=list)
    #: True when each op runs in a child process (peak RSS is the children's)
    subprocesses: bool = False
    #: set by the runner during traced rounds of a subprocess workload
    child_tracer: object = None
    #: peak resident set of any op child, in KiB
    child_maxrss_kb: int = 0
    #: CPU seconds (user + system) of the last op child
    last_child_cpu_s: float = 0.0


def _unit(rng, n: int) -> tuple[complex, ...]:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    return tuple(complex(x) for x in v)


def _round_plan(rng, mix) -> list[str]:
    """The round's op kinds, a fixed multiset in seeded order."""
    kinds = [kind for kind, count in mix for _ in range(count)]
    return [kinds[i] for i in rng.permutation(len(kinds))]


def _repeated(rng, distinct: list[tuple[Op, int]]) -> list[Op]:
    """Each ``(op, repeats)`` placed ``repeats`` times in the round, in
    seeded order.

    The copies are the same object, so the runner takes the op's best time
    over ``repeats`` times as many runs.  Workloads whose rounds take
    seconds use this, so that each op gets enough runs, spread over the
    whole run, to meet the machine in its fast state.
    """
    placed = [op for op, repeats in distinct for _ in range(repeats)]
    return [placed[i] for i in rng.permutation(len(placed))]


# -- apparatus -----------------------------------------------------------------

#: run_fusion ops are 48 product + 48 entangled + 32 tagged: a quarter
#: tagged.  A tagged op costs 1-4x a plain fusion depending on its basis
#: and input row, so the 32 cover each of the 16 (basis, row) pairs twice
#: and only p is drawn from the seed: the round's cost profile, and with it
#: the tail (the 11th of 204 per-op best times from the top, inside the
#: tagged group), is the same for every seed.  The 28 rail ops (fast)
#: roughly balance the 32 tagged ones (slow), so the median op falls inside
#: the plain fusion/fission ops.
APPARATUS_MIX = (
    ("fusion_product", 48),
    ("fusion_entangled", 48),
    ("fusion_tagged", 32),
    ("fission", 48),
    ("rail_fuse", 8),
    ("fuse_iterated", 12),
    ("rail_fission", 8),
)

RAIL_SPLIT_KETS = tuple(
    ((f"c_{c}", ""), (f"t_{t}", "")) for c in (0, 1) for t in (0, 1)
)


def tagged_input(psi, phi, ancilla_tag: str, pair_tag: str):
    """Ancilla H on ``a``, qubits on ``t`` and ``c``, built by tagged creation."""
    s = states.PureState.vacuum().create("a", H, ancilla_tag)
    s = psi[0] * s.create("t", H, pair_tag) + psi[1] * s.create("t", V, pair_tag)
    return phi[0] * s.create("c", H, pair_tag) + phi[1] * s.create("c", V, pair_tag)


def _fusion_op(kind, psi=None, phi=None, amps=None) -> Op:
    want = oracles.product_amplitudes(psi, phi) if amps is None else np.asarray(amps)

    def run():
        if amps is None:
            outcomes = circuits.run_fusion(psi, phi)
            target = circuits.fused_target(circuits.product_qudit(psi, phi))
        else:
            outcomes = circuits.run_fusion(entangled=amps)
            target = circuits.fused_target(amps)
        corrected = [circuits.apply_feed_forward(o) for o in outcomes]
        fids = [states.fidelity(c, target) for c in corrected]
        return [o.probability for o in outcomes], corrected, fids

    def check(out):
        probs, corrected, fids = out
        rail = rails.fuse(psi, phi) if amps is None else rails.fuse_joint(amps)
        return oracles.check_heralded(
            probs, corrected, fids, oracles.FUSED_KETS, want
        ) or oracles.check_rail_branch(corrected[0], rail.plus_amps)

    params = (psi, phi) if amps is None else (amps,)
    return Op(kind, params, run, check)


def _tagged_op(circuit, key: str, row: int, p: float) -> Op:
    basis = dist.get_basis(key)
    psi, phi = basis.input_states[row]

    def run():
        r = dist.indistinguishable_fraction(p)
        mixed = states.MixedState(
            ((r, tagged_input(psi, phi, "", "")), (1.0 - r, tagged_input(psi, phi, "A", "B")))
        )
        heralded = circuits.run_circuit(circuit, input_state=mixed)[0]
        return [
            heralded.probability * states.projector_probability(heralded.state, basis.projector(j))
            for j in range(4)
        ]

    def check(got_row):
        want = dist.closed_form_matrix(key, p).entries[row]
        return oracles.check_row(got_row, want, f"basis {key} row {row} at p={p:.4f}")

    return Op("fusion_tagged", (key, row, p), run, check)


def _fission_op(amps) -> Op:
    def run():
        outcomes = circuits.run_fission(amps)
        target = circuits.fission_success_target(amps)
        corrected = [circuits.fission_feed_forward(o) for o in outcomes]
        fids = [states.fidelity(c, target) for c in corrected]
        return [o.probability for o in outcomes], corrected, fids

    def check(out):
        probs, corrected, fids = out
        return oracles.check_heralded(probs, corrected, fids, oracles.SPLIT_KETS, np.asarray(amps))

    return Op("fission", (amps,), run, check)


def _rail_fuse_op(psi, phi) -> Op:
    def run():
        b = rails.fuse(psi, phi)
        return b.plus_amps, b.minus_corrected(), b.plus_probability, b.minus_probability

    return Op("rail_fuse", (psi, phi), run, lambda out: oracles.check_rail_fuse(*out, psi, phi))


def _fuse_iterated_op(qubits) -> Op:
    return Op(
        "fuse_iterated",
        (qubits,),
        lambda: rails.fuse_iterated(qubits)[0],
        lambda amps: oracles.check_fuse_iterated(amps, qubits),
    )


def _rail_fission_op(qudit) -> Op:
    def check(out):
        state, probability = out
        vec, leaked = oracles.amplitude_vector(state, RAIL_SPLIT_KETS)
        if leaked > oracles.TOL:
            return f"rail fission leaks weight {leaked!r} outside the output rails"
        return oracles.check_rail_fission(vec, probability, qudit)

    return Op("rail_fission", (qudit,), lambda: rails.fission(qudit), check)


def make_apparatus(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    circuit = circuits.build_fusion_circuit()
    iterated_sizes = itertools.cycle((2, 3, 4))
    tagged_inputs = itertools.cycle(itertools.product(dist.BASIS_KEYS, range(4)))
    ops = []
    for kind in _round_plan(rng, APPARATUS_MIX):
        if kind == "fusion_product":
            ops.append(_fusion_op(kind, _unit(rng, 2), _unit(rng, 2)))
        elif kind == "fusion_entangled":
            ops.append(_fusion_op(kind, amps=_unit(rng, 4)))
        elif kind == "fusion_tagged":
            key, row = next(tagged_inputs)
            ops.append(_tagged_op(circuit, key, row, float(rng.uniform(0.05, 0.95))))
        elif kind == "fission":
            ops.append(_fission_op(_unit(rng, 4)))
        elif kind == "rail_fuse":
            ops.append(_rail_fuse_op(_unit(rng, 2), _unit(rng, 2)))
        elif kind == "fuse_iterated":
            ops.append(_fuse_iterated_op(tuple(_unit(rng, 2) for _ in range(next(iterated_sizes)))))
        else:
            ops.append(_rail_fission_op(_unit(rng, 4)))
    return Workload("apparatus", ops)


# -- mesh ------------------------------------------------------------------------

#: (photon number, distinct meshes, places in the round of each).  Chosen
#: so that no n takes half of a round's time (about 45% n=6, 39% n=5, 15%
#: n=4), the median of the round's 94 per-op best times sits in the n=4
#: group (22 places below it, 22 above), and the tail, the 11th from the
#: top, inside the n=5 group.
MESH_MIX = ((2, 2, 6), (3, 2, 5), (4, 5, 10), (5, 2, 10), (6, 1, 2))
MESH_LAYERS = 3


def mesh_steps(n: int, rng) -> list[tuple]:
    """MESH_LAYERS pairs of layers: seeded-angle half-wave plates on every
    mode, then PBSs between neighbours in a brick pattern."""
    steps: list[tuple] = []
    for layer in range(MESH_LAYERS):
        # three decimals keep every angle exact through the DSL's %g output
        steps.extend(("hwp", m, round(float(rng.uniform(0.0, 180.0)), 3)) for m in range(n))
        steps.extend(("pbs", i, i + 1) for i in range(layer % 2, n - 1, 2))
    return steps


def mesh_text(n: int, steps) -> tuple[str, list[tuple[str, ...]]]:
    """``.lop`` source for the mesh plus its polarization-resolved n-fold
    coincidence family, in detect-line order."""
    lines = [f"mode m{m}" for m in range(n)]
    lines += [f"photon m{m} H" for m in range(n)]
    for step in steps:
        if step[0] == "hwp":
            lines.append(f"hwp m{step[1]} {step[2]:g}")
        else:
            lines.append(f"pbs m{step[1]} m{step[2]} m{step[1]} m{step[2]}")
    patterns = list(itertools.product((H, V), repeat=n))
    for pols in patterns:
        lines.append("detect " + " ".join(f"m{m} {pol}" for m, pol in enumerate(pols)))
    return "\n".join(lines) + "\n", patterns


def _mesh_op(n: int, steps) -> Op:
    text, patterns = mesh_text(n, steps)

    def run():
        circuit = dsl.parse_circuit(text)
        state = states.PureState.vacuum()
        for m in range(n):
            state = state.create(f"m{m}", H, cap=None)
        outcomes = circuits.run_circuit(circuit, input_state=state)
        again = dsl.parse_circuit(dsl.serialize_circuit(circuit))
        return [o.probability for o in outcomes], again == circuit

    def check(out):
        probabilities, round_trip = out
        if not round_trip:
            return f"n={n}: serialize/parse round trip changed the circuit"
        u = oracles.mesh_transfer_matrix(n, steps)
        return oracles.check_coincidences(probabilities, u, n, patterns)

    return Op(f"mesh_n{n}", (n, tuple(steps)), run, check)


def make_mesh(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    distinct = [
        (_mesh_op(n, mesh_steps(n, rng)), repeats) for n, count, repeats in MESH_MIX for _ in range(count)
    ]
    return Workload("mesh", _repeated(rng, distinct))


# -- source model ----------------------------------------------------------------

#: 40 ops a round, so the tail (11th of the per-op best times from the top)
#: sits at the 75th percentile rather than at the median
SOURCE_OPS_PER_BASIS = 10
COUNTS_PER_ROW = 2000
#: the library's default, which ``fit-p`` on the command line also uses
FIT_TOL = 1e-4


def sample_counts(rng, key: str, p: float) -> np.ndarray:
    """Seeded multinomial counts, COUNTS_PER_ROW per input, from the closed form."""
    probs = np.asarray(dist.closed_form_matrix(key, p).entries)
    return np.array([rng.multinomial(COUNTS_PER_ROW, row / row.sum()) for row in probs], dtype=float)


def _source_op(key: str, p: float, counts: np.ndarray) -> Op:
    def run():
        simulated = dist.simulate_basis_matrix(key, p)
        closed = dist.closed_form_matrix(key, p)
        fitted = dist.fit_p(counts, key, tol=FIT_TOL)
        return simulated.entries, closed.entries, fitted

    def check(out):
        simulated, closed, fitted = out
        model = lambda q: dist.closed_form_matrix(key, q).entries  # noqa: E731
        return oracles.check_matrices(simulated, closed) or oracles.check_fit(
            counts, fitted, p, model, FIT_TOL
        )

    return Op("source_model", (key, p, tuple(map(tuple, counts))), run, check)


def make_source_model(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    for key in _round_plan(rng, [(k, SOURCE_OPS_PER_BASIS) for k in dist.BASIS_KEYS]):
        p = float(rng.uniform(0.05, 0.95))
        ops.append(_source_op(key, p, sample_counts(rng, key, p)))
    # the four p-independent branch tables: a cold fill, kept for the run
    for key in dist.BASIS_KEYS:
        dist.simulate_basis_matrix(key, 0.5)
    return Workload("source_model", ops)


# -- cli ---------------------------------------------------------------------------

#: (command, distinct commands, places in the round of each): 35 places,
#: ``verify`` once.  The per-op best times of a round are the latency
#: samples.  The 22 import-bound commands (~0.25 s) hold the median a few
#: places inside their group; the 13 heavier ones (``basis-scan`` in bases
#: i and ii, ``fidelity-curve`` and ``verify``) put the tail, the 11th from
#: the top, among the ``basis-scan`` ops.
CLI_MIX = (
    ("fuse", 1, 4),
    ("fission", 1, 3),
    ("abstract-fuse", 1, 3),
    ("abstract-fission", 1, 3),
    ("fit-p", 1, 3),
    ("run-fusion", 1, 3),
    ("run-fission", 1, 3),
    ("basis-scan", 2, 4),
    ("fidelity-curve", 1, 4),
    ("verify", 1, 1),
)


def _amp_text(amps) -> str:
    return ",".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in amps)


#: fuse and fission report four heralded branches at 1/32, each corrected
#: to fidelity 1 by feed-forward
HERALDED_BRANCHES = [{"probability": oracles.HERALD_PROBABILITY, "fidelity": 1.0}] * 4


def _no_check(tables) -> None:
    return None


def _cli_command(kind: str, rng, seed: int, ordinal: int):
    """Arguments for the ``ordinal``-th command of its kind, a function
    giving the tables the in-process library produces, and a check of the
    report's tables against an oracle that does not call fockfuse."""
    if kind == "fuse":
        psi, phi = _unit(rng, 2), _unit(rng, 2)
        args = ["fuse", f"--psi={_amp_text(psi)}", f"--phi={_amp_text(phi)}", "--format", "json"]

        def independent(tables):
            fused = tables["fused amplitudes (t1H, t1V, t2H, t2V)"]
            return oracles.check_product_report([fused], None, (psi, phi), "fuse")

        return args, lambda: {"heralded branches": HERALDED_BRANCHES}, independent
    if kind == "fission":
        amps = _unit(rng, 4)
        args = ["fission", f"--amps={_amp_text(amps)}", "--format", "json"]
        return args, lambda: {"heralded branches": HERALDED_BRANCHES}, _no_check
    if kind == "abstract-fuse":
        psi, phi = _unit(rng, 2), _unit(rng, 2)
        args = ["abstract-fuse", f"--psi={_amp_text(psi)}", f"--phi={_amp_text(phi)}", "--format", "json"]

        def expect():
            b = rails.fuse(psi, phi)
            return {
                "plus branch": {"probability": b.plus_probability, "amplitudes": list(b.plus_amps)},
                "minus branch": {"probability": b.minus_probability, "amplitudes": list(b.minus_amps)},
            }

        def independent(tables):
            plus, minus = tables["plus branch"], tables["minus branch"]
            return oracles.check_product_report(
                [plus["amplitudes"], minus["corrected"]],
                [plus["probability"], minus["probability"]],
                (psi, phi),
                "abstract-fuse",
            )

        return args, expect, independent
    if kind == "abstract-fission":
        amps = _unit(rng, 4)
        args = ["abstract-fission", f"--amps={_amp_text(amps)}", "--format", "json"]
        label = "amplitudes (c0t0, c0t1, c1t0, c1t1)"

        def expect():
            state, probability = rails.fission(amps)
            vec, _ = oracles.amplitude_vector(state, RAIL_SPLIT_KETS)
            return {"success branch": {"probability": probability, label: [complex(z) for z in vec]}}

        def independent(tables):
            branch = tables["success branch"]
            vec = oracles.report_complex(branch[label])
            return oracles.check_rail_fission(vec, branch["probability"], amps)

        return args, expect, independent
    if kind == "basis-scan":
        key, p = dist.BASIS_KEYS[ordinal % 4], float(rng.uniform(0.05, 0.95))
        args = ["basis-scan", "--basis", key, "--p", repr(p), "--format", "json"]

        def independent(tables):
            simulated = tables["simulated"]["entries"]
            return oracles.check_matrices(simulated, tables["closed form"]["entries"])

        return args, lambda: {
            "simulated": {"entries": dist.simulate_basis_matrix(key, p).entries},
            "closed form": {"entries": dist.closed_form_matrix(key, p).entries},
        }, independent
    if kind == "fidelity-curve":
        lo, hi, steps = float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.7, 1.0)), 11
        grid = [float(p) for p in np.linspace(lo, hi, steps)]

        def expect():
            rows = []
            for p in grid:
                row = {
                    "p": p,
                    "law": dist.average_fidelity(p),
                    "simulated": dist.simulated_average_fidelity(p),
                    "all16_weighted": dist.coincidence_weighted_fidelity(p),
                }
                row.update({f"basis_{k}": dist.simulated_basis_mean_fidelity(k, p) for k in dist.BASIS_KEYS})
                rows.append(row)
            return {"fidelity vs p": rows}

        args = ["fidelity-curve", "--p-min", repr(lo), "--p-max", repr(hi), "--steps", str(steps), "--format", "json"]
        return args, expect, lambda tables: oracles.check_fidelity_curve(tables["fidelity vs p"], grid)
    if kind == "fit-p":
        key, p = dist.BASIS_KEYS[ordinal % 4], float(rng.uniform(0.05, 0.95))
        counts = sample_counts(rng, key, p)
        path = WORK / f"cli-seed{seed}-fit{ordinal}.csv"
        text = "input/output,o0,o1,o2,o3\n" + "".join(
            f"i{r}," + ",".join(f"{int(x)}" for x in row) + "\n" for r, row in enumerate(counts)
        )
        path.write_text(text)
        args = ["fit-p", "--input", str(path.relative_to(ROOT)), "--basis", key, "--format", "json"]

        def independent(tables):
            model = lambda q: dist.closed_form_matrix(key, q).entries  # noqa: E731
            return oracles.check_fit(counts, tables["fit"]["p"], p, model, FIT_TOL)

        return args, lambda: {"fit": {"p": dist.fit_p(counts, key)}}, independent
    if kind in ("run-fusion", "run-fission"):
        name = kind.split("-")[1]
        binds = {"psi": _unit(rng, 2), "phi": _unit(rng, 2)} if name == "fusion" else {"input": _unit(rng, 4)}
        args = ["run", f"{name}.lop"] + [f"--bind={k}={_amp_text(v)}" for k, v in binds.items()]
        args += ["--format", "json"]

        def independent(tables):
            probabilities = [row["probability"] for row in tables["detection outcomes"]]
            return oracles.check_heralded_report(probabilities, kind)

        return args, lambda: {
            "detection outcomes": [
                {"probability": o.probability}
                for o in circuits.run_circuit(dsl.load_named_circuit(name), bindings=binds)
            ]
        }, independent
    verify_seed = int(rng.integers(1, 2**31))
    return ["verify", "--seed", str(verify_seed)], lambda: None, _no_check


def spawn(argv: list[str]) -> tuple[int, str, str, int, float]:
    """Run one child to completion: (exit code, stdout, stderr, maxrss KiB, CPU s).

    Output goes through files in the work directory and the child is reaped
    with ``wait4``, which also yields that child's own peak resident set and
    CPU time.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(WORK / "child.stdout", "w+b") as out, open(WORK / "child.stderr", "w+b") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss, cpu


def _cli_op(workload: Workload, kind: str, args: list[str], expect, independent) -> Op:
    cache: list = []

    def run():
        tracer = workload.child_tracer
        if tracer is None:
            argv = [sys.executable, "-m", "fockfuse.cli", *args]
        else:
            trace_out = WORK / "child-trace.json"
            argv = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(trace_out), *args]
        spawned = time.monotonic()
        code, out, err, maxrss, workload.last_child_cpu_s = spawn(argv)
        workload.child_maxrss_kb = max(workload.child_maxrss_kb, maxrss)
        if tracer is not None and code == 0:
            tracer.merge_child(json.loads(trace_out.read_text()), spawned)
        return code, out, err

    def check(result):
        code, out, err = result
        if code != 0:
            return f"{kind}: exit code {code}: {err.strip().splitlines()[-1:] or ''}"
        if kind == "verify":
            n = len(fverify.CHECKS)
            if f"{n}/{n} checks passed" not in out:
                return f"verify did not report {n}/{n} checks passed"
            return None
        if not cache:
            cache.append(expect())
        try:
            report = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"{kind}: output is not JSON ({exc})"
        return independent(report["tables"]) or oracles.compare_values(report["tables"], cache[0], kind)

    return Op(f"cli_{kind}", tuple(args), run, check)


def make_cli(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    WORK.mkdir(exist_ok=True)
    workload = Workload("cli", subprocesses=True)
    distinct = [
        (_cli_op(workload, kind, *_cli_command(kind, rng, seed, ordinal)), repeats)
        for kind, count, repeats in CLI_MIX
        for ordinal in range(count)
    ]
    workload.ops = _repeated(rng, distinct)
    return workload


MAKERS = {
    "apparatus": make_apparatus,
    "mesh": make_mesh,
    "source_model": make_source_model,
    "cli": make_cli,
}


#: warm-up runs one op per kind; these kinds cost too much to repeat in set-up
WARM_SKIP = frozenset({"mesh_n5", "mesh_n6"})


def warm_up(workload: Workload) -> None:
    """Run one op of each in-process kind so lazy imports and first calls settle."""
    if workload.subprocesses:
        return
    seen = set(WARM_SKIP)
    for op in workload.ops:
        if op.kind not in seen:
            seen.add(op.kind)
            op.run()
