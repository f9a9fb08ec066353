"""fockfuse benchmark: one seeded workload, timed end to end or traced per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload apparatus --seed 1 --seconds 10 --trace 0

Load is one process, one thread, one client in a closed loop: the next op
starts when the previous one has finished and been timed; oracle checks run
between ops, outside the timed region.  Rounds of the workload's ops repeat
for ``--seconds`` of wall time (the last one may stop part way), and each
op of the round is timed as its best over those rounds.
``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics, with tracing
overhead as the traced minus the untraced ops/s.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the provenance record.  The exit code is
1 when any op fails or any oracle check rejects a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: set-up is timed in this many fresh processes; setup_s is their minimum
SETUP_REPEATS = 7
#: numpy must not start BLAS/OpenMP worker threads: all load is one thread
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: latency_tail_ms is the highest percentile with this many samples beyond it
TAIL_BEYOND = 10


def parse_args(argv, workload_names) -> argparse.Namespace:
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workload_names), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=run_seconds, help="wall time to measure for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="set up, print 'ready' and exit (timing child)"
    )
    return parser.parse_args(argv)


def bootstrap() -> None:
    """Pin numerical threads and import fockfuse from this checkout's src/."""
    os.environ.update(THREAD_PINS)
    src = ROOT / "src"
    if not (src / "fockfuse" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: fockfuse sources not found under {src}")
    sys.path.insert(0, str(src))


def time_setup(workload: str, seed: int) -> tuple[float, float]:
    """(CPU seconds, wall seconds) a fresh interpreter spends until it could
    time its first op: interpreter start, import, workload construction and
    warm-up.  The CPU figure is the child's own ``process_time``."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
    with proc.stdout:
        line = proc.stdout.readline().split()
    wall = time.perf_counter() - start
    if proc.wait() != 0 or len(line) != 2 or line[0] != b"ready":
        raise SystemExit(f"perfbench: set-up child failed (exit {proc.returncode})")
    return float(line[1]), wall


class Measurement:
    def __init__(self) -> None:
        #: op latencies in CPU seconds, untraced (False) and traced (True)
        self.latencies = {False: [], True: []}
        self.wall = {False: [], True: []}
        self.round_rates: list[float] = []
        #: per op of the round, its lowest CPU time over the untraced rounds
        self.best: list[float] = []
        self.setup_cpu: list[float] = []
        self.setup_wall: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.rounds = 0

    def ops_per_s(self, traced: bool) -> float:
        lat = self.latencies[traced]
        return len(lat) / sum(lat) if lat else 0.0


def measure(workload, seconds: float, tracer=None, setup_probe=None) -> Measurement:
    """Closed loop over the rounds for ``seconds`` of wall time.

    The time covers the ops, their checks and the set-up probes, so a run
    lasts as long on a busy machine as on an idle one.  An untraced run
    stops as soon as the time is up, after at least one whole round, so
    every op has a time and the run's length does not depend on where a
    round ends; a traced run ends on a whole traced round.
    Op latency is the CPU time of the thread running it (of the child, for
    subprocess ops): the load is single-threaded and CPU-bound, and on a
    shared machine wall time adds preemption by unrelated processes.  Wall
    times are kept alongside.  Every round repeats the same ops, so each op
    also keeps its best time over the untraced rounds.  When tracing, odd
    rounds are traced.
    ``setup_probe`` is called SETUP_REPEATS times, spread evenly over the
    run, so set-up samples see the machine at the same moments as the ops.
    """
    import tracing

    m = Measurement()
    start = time.perf_counter()
    probes = [seconds * k / SETUP_REPEATS for k in range(SETUP_REPEATS)] if setup_probe else []
    best = {id(op): float("inf") for op in workload.ops}
    while time.perf_counter() - start < seconds or (tracer is not None and m.rounds < 2):
        traced = tracer is not None and m.rounds % 2 == 1
        if traced and not workload.subprocesses:
            tracing.install(tracer)
        round_time, complete = 0.0, True
        for op in workload.ops:
            elapsed = time.perf_counter() - start
            if tracer is None and m.rounds >= 1 and elapsed >= seconds:
                complete = False
                break
            while probes and elapsed >= probes[0]:
                probes.pop(0)
                cpu, wall = setup_probe()
                m.setup_cpu.append(cpu)
                m.setup_wall.append(wall)
            m.attempted += 1
            error = None
            if traced:
                workload.child_tracer = tracer if workload.subprocesses else None
                tracer.active = True
            wall0, cpu0 = time.perf_counter(), time.thread_time()
            try:
                out = tracer.call(tracing.OP, op.run) if traced else op.run()
            except Exception as exc:  # an op that raises is a failed op, not a crash
                error = f"{op.kind}: raised {exc!r}"
            cpu = workload.last_child_cpu_s if workload.subprocesses else time.thread_time() - cpu0
            wall = time.perf_counter() - wall0
            if traced:
                tracer.active = False
                workload.child_tracer = None
            if error is None:
                try:
                    error = op.check(out)
                except Exception as exc:
                    error = f"{op.kind}: oracle raised {exc!r}"
            if error is not None:
                m.failures.append(error)
            m.latencies[traced].append(cpu)
            if not traced:
                best[id(op)] = min(best[id(op)], cpu)
            m.wall[traced].append(wall)
            round_time += cpu
        if traced:
            tracer.uninstall()
        elif complete:
            m.round_rates.append(len(workload.ops) / round_time)
        if not complete:
            break
        m.rounds += 1
    while probes:
        probes.pop(0)
        cpu, wall = setup_probe()
        m.setup_cpu.append(cpu)
        m.setup_wall.append(wall)
    # an op placed several times in the round is one object, timed over all
    m.best = [best[id(op)] for op in workload.ops]
    return m


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "min": values[0], "q1": q1, "median": med, "q3": q3}


def tail_latency(latencies) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(m: Measurement, peak_rss_kb: int) -> tuple[dict, dict]:
    """The declared metrics, all taken from best-of-rounds op times.

    The machine the baseline was taken on changes speed by up to 1.7x for
    tens of seconds at a time; an op's best over the run's rounds (and the
    best of the set-up probes) is what that drift moves least, while a
    slower op or set-up still moves it in full.
    """
    lat = m.latencies[False]
    ok_frac = (m.attempted - len(m.failures)) / m.attempted
    tail, percentile = tail_latency(m.best)
    metrics = {
        "setup_s": (min(m.setup_cpu), "s"),
        "ops_per_s": (ok_frac * len(m.best) / sum(m.best), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(m.best), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MiB"),
    }
    samples = {
        "setup_s": quartiles(m.setup_cpu),
        "best_latency_ms": quartiles([1e3 * x for x in m.best]),
        "ops_per_s": quartiles(m.round_rates),
        "latency_ms": quartiles([1e3 * x for x in lat]),
        "setup_wall_s": quartiles(m.setup_wall),
        "latency_wall_ms": quartiles([1e3 * x for x in m.wall[False]]),
    }
    extra = {
        "latency_tail_percentile": percentile,
        "latency_tail_samples": len(m.best),
        "untraced_rounds": len(lat) / len(m.best),
        "failed_frac": len(m.failures) / m.attempted,
        "samples": samples,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, extra


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(args, workload, m: Measurement) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "thread_pins": THREAD_PINS,
        "client": "closed loop, 1 process, 1 thread, 1 client",
        "rounds": m.rounds,
        "ops_per_round": len(workload.ops),
        "setup_repeats": SETUP_REPEATS,
        "failures": m.failures[:5],
    }


def main(argv=None) -> int:
    bootstrap()
    import tracing
    import workloads

    args = parse_args(argv, workloads.MAKERS)

    workloads.WORK.mkdir(exist_ok=True)
    if args.setup_only:
        workload = workloads.MAKERS[args.workload](args.seed)
        workloads.warm_up(workload)
        print("ready", repr(time.process_time()), flush=True)
        return 0

    workload = workloads.MAKERS[args.workload](args.seed)
    workloads.warm_up(workload)
    if args.trace:
        tracer, probe = tracing.Tracer(), None
    else:
        tracer, probe = None, lambda: time_setup(args.workload, args.seed)
    m = measure(workload, args.seconds, tracer, probe)

    record = provenance(args, workload, m)
    if args.trace:
        summary = tracer.summary()
        tracing.merge(summary, tracer.child_summary)
        overhead = m.ops_per_s(True) - m.ops_per_s(False)
        metrics = tracing.layer_metrics(
            summary, tracer.counters, tracer.maxima, len(m.latencies[True]), overhead
        )
        record["spans"] = summary
        tracer.dump(workloads.WORK / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        if workload.subprocesses:
            peak_kb = workload.child_maxrss_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics, extra = end_to_end(m, peak_kb)
        record.update(extra)

    failed = len(m.failures)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{m.attempted} ops in {m.rounds} rounds, {failed} failed")
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        print(f"  {'(latency_tail_ms percentile)':44s} {record['latency_tail_percentile']:>14.6g} "
              f"of {record['latency_tail_samples']} ops, best over {record['untraced_rounds']:.2f} rounds")
        print(f"  {'failed_frac':44s} {record['failed_frac']:>14.6g} ratio")
    for failure in m.failures[:5]:
        print(f"  FAILED {failure}", file=sys.stderr)

    result = {"correct": failed == 0, "attempted": m.attempted, "failed": failed, "metrics": metrics}
    out = workloads.WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"provenance": record, "result": result}, indent=1))
    print(json.dumps({"provenance": {k: v for k, v in record.items() if k != "spans"}}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
