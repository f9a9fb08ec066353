"""Record one point of the benchmark trajectory.

Usage (from the root of a checkout):

    python3 perfbench/record.py LABEL [--seeds 1,2,...] [--workloads a,b]

Runs ``run.py`` once per workload and seed with tracing off, then once per
workload with tracing on (first seed), and writes
``perfbench/trajectory/LABEL.json``: every run's end-to-end values, their
median, quartiles and spread (q3 - q1 over the median), the traced
per-layer metrics, and the provenance of each workload's first run.  Runs
are sequential and interleaved (seed 1 of every workload, then seed 2, ...)
so that a drift in the machine's speed over minutes is spread over all
workloads rather than read as one workload's seed-to-seed spread; a run
that fails or reports ``correct: false`` stops the recording.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    start = time.perf_counter()
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"record: {workload} seed {seed} failed:\n{proc.stderr}")
    provenance = json.loads(lines[-2])["provenance"]
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"record: {workload} seed {seed} reported incorrect results")
    print(f"{workload} seed {seed} trace {trace}: {time.perf_counter() - start:.1f} s wall", flush=True)
    return provenance, result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "min": min(values),
        "q1": q1,
        "median": median,
        "q3": q3,
        "spread": (q3 - q1) / median,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}

    point = {"label": args.label, "run_seconds": BENCHMARK["run_seconds"], "seeds": seeds}
    names = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = {name: {} for name in names}
    provenance: dict[str, dict] = {}
    for seed in seeds:
        for workload in names:
            prov, result = run_once(workload, seed, 0)
            provenance.setdefault(workload, prov)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 5) for k, v in values[workload].items()}, flush=True)
    for workload in names:
        _, traced = run_once(workload, seeds[0], 1)
        point[workload] = {
            "end_to_end": {name: summarize(v) for name, v in values[workload].items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "provenance": provenance[workload],
        }
        print(workload)
        for name, summary in point[workload]["end_to_end"].items():
            flag = "" if summary["spread"] < bounds[name] / 3 else "  (spread above bound/3)"
            print(f"  {name:16s} median {summary['median']:.6g} spread {summary['spread']:.4f}{flag}")

    out = BENCH_DIR / "trajectory" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
