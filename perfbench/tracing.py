"""Spans around the calls into each fockfuse layer, from outside the package.

``install`` replaces public functions and methods with timing wrappers
wherever callers look them up: modules import by name (``from .elements
import apply_element``), so a function is patched in every module that
holds a reference, not only where it is defined.  Methods are patched on
their class.  Nothing inside ``src/`` is edited; ``uninstall`` restores the
originals.

Spans are kept in memory while the tracer is active and written out when
the run ends.  A span's self time is its duration minus the durations of
its direct children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

OP = "op"


class Tracer:
    def __init__(self) -> None:
        self.active = False
        #: [name, parent index or -1, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        #: span summaries reported by traced child processes
        self.child_summary: dict[str, dict[str, float]] = {}
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        index = len(self.spans)
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(index)
        span[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration and self time (seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, _parent, start, end), covered in zip(self.spans, child_time):
            agg = out.setdefault(name, {"calls": 0, "dur_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["dur_s"] += end - start
            agg["self_s"] += end - start - covered
        return out

    def merge_child(self, record: dict, spawned: float) -> None:
        """Fold in a traced CLI child; ``spawned`` is the parent's monotonic
        clock just before the child was started."""
        merge(self.child_summary, record["summary"])
        self.counters["cli.interpreter_s"] += record["started"] - spawned
        self.counters["cli.import_s"] += record["import_s"]
        for key, value in record["counters"].items():
            self.counters[key] += value
        for key, value in record["maxima"].items():
            self.maxima[key] = max(self.maxima[key], value)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end"], "spans": self.spans}, fh)

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            result = tracer.call(name, original, *args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# -- counters recorded at the layer boundaries ---------------------------------


def _after_substituted(tracer, args, kwargs, result) -> None:
    tracer.counters["states.substituted.terms_in"] += len(args[0])
    tracer.counters["states.substituted.terms_out"] += len(result)


def _after_project(tracer, args, kwargs, result) -> None:
    tracer.counters["states.project.terms"] += len(args[0])
    tracer.counters["states.project.kept"] += len(result.state)


def _after_apply(tracer, args, kwargs, result) -> None:
    tracer.maxima["circuits.max_terms"] = max(tracer.maxima["circuits.max_terms"], len(result))


def _after_similarity(tracer, args, kwargs, result) -> None:
    if tracer.inside("distinguishability.fit_p"):
        tracer.counters["distinguishability.fit_p.objective_evals"] += 1


def _after_parse(tracer, args, kwargs, result) -> None:
    text = args[0] if args else kwargs["text"]
    tracer.counters["dsl.parse.lines"] += len(text.splitlines())


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark and the CLI cross."""
    # elements is reached through the names circuits imported from it
    from fockfuse import circuits, cli, distinguishability, dsl, rails, reports, states

    p = tracer._patch
    p(states.PureState, "substituted", "states.substituted", _after_substituted)
    p(states.PureState, "project", "states.project", _after_project)
    p(states.MixedState, "project", "states.project_mixed")
    p(states.PureState, "create", "states.create")
    for attr in ("__add__", "__mul__", "__rmul__", "normalized", "factor_on_modes"):
        p(states.PureState, attr, "states.algebra")
    for mod in (states, distinguishability):
        p(mod, "projector_probability", "states.projector_probability")
    for mod in (states, cli):
        p(mod, "fidelity", "states.fidelity")

    p(circuits, "apply_element", "elements.apply", _after_apply)
    for attr in ("apply_sigma_x", "apply_sign_flip_v", "apply_relabel"):
        p(circuits, attr, "elements.apply", _after_apply)

    for mod in (circuits, cli):
        for attr in ("run_circuit", "run_fusion", "run_fission"):
            p(mod, attr, "circuits.run_circuit")
        for attr in ("apply_feed_forward", "fission_feed_forward"):
            p(mod, attr, "circuits.feed_forward")
        for attr in ("fused_target", "fission_success_target", "product_qudit"):
            p(mod, attr, "circuits.target")
    p(circuits, "initial_state", "circuits.initial_state")
    for attr in ("build_fusion_circuit", "build_fission_circuit"):
        p(circuits, attr, "circuits.build")
    p(distinguishability, "build_fusion_circuit", "circuits.build")

    for attr in ("fuse", "fuse_joint", "fuse_iterated", "fission"):
        p(rails, attr, "rails")
    p(cli, "rail_fuse", "rails")
    p(cli, "rail_fission", "rails")

    for mod in (distinguishability, cli):
        p(mod, "simulate_basis_matrix", "distinguishability.simulate")
        p(mod, "closed_form_matrix", "distinguishability.closed_form")
        p(mod, "fit_p", "distinguishability.fit_p")
        p(mod, "similarity", "distinguishability.similarity", _after_similarity)
        for attr in ("simulated_average_fidelity", "simulated_basis_mean_fidelity"):
            p(mod, attr, "distinguishability.fidelity")
    for attr in ("average_fidelity", "coincidence_weighted_fidelity"):
        p(cli, attr, "distinguishability.fidelity")

    for mod in (dsl, cli):
        p(mod, "parse_circuit", "dsl.parse", _after_parse)
    p(dsl, "serialize_circuit", "dsl.serialize")

    p(reports.ExperimentReport, "to_json", "reports.render")
    p(reports.ExperimentReport, "to_text", "reports.render")
    p(cli, "run_verification", "verify.run")


# -- per-layer metrics ---------------------------------------------------------

#: (metric, unit); the same list is declared in BENCHMARK.json
LAYER_METRICS = (
    ("states.substituted.calls", "calls/op"),
    ("states.substituted.self_s", "s/op"),
    ("states.substituted.terms_in", "terms/op"),
    ("states.substituted.terms_out", "terms/op"),
    ("states.project.calls", "calls/op"),
    ("states.project.self_s", "s/op"),
    ("states.project.kept_frac", "ratio"),
    ("states.projector_probability.self_s", "s/op"),
    ("states.create.self_s", "s/op"),
    ("elements.apply.calls", "calls/op"),
    ("elements.apply.self_s", "s/op"),
    ("elements.us_per_term", "us/term"),
    ("circuits.run_circuit.self_s", "s/op"),
    ("circuits.initial_state.self_s", "s/op"),
    ("circuits.feed_forward.self_s", "s/op"),
    ("circuits.build.self_s", "s/op"),
    ("circuits.max_terms", "terms"),
    ("rails.calls", "calls/op"),
    ("rails.self_s", "s/op"),
    ("distinguishability.simulate.self_s", "s/op"),
    ("distinguishability.fit_p.self_s", "s/op"),
    ("distinguishability.similarity.self_s", "s/op"),
    ("distinguishability.fit_p.objective_evals", "evals/call"),
    ("dsl.parse.self_s", "s/op"),
    ("dsl.serialize.self_s", "s/op"),
    ("dsl.parse.lines", "lines/op"),
    ("reports.render.self_s", "s/op"),
    ("cli.interpreter_s", "s/op"),
    ("cli.import_s", "s/op"),
    ("cli.main.self_s", "s/op"),
    ("verify.run_s", "s/call"),
    ("trace.layer_share", "ratio"),
    ("trace.overhead_ops_per_s", "1/s"),
)


def merge(into: dict, summary: dict) -> None:
    for name, agg in summary.items():
        dst = into.setdefault(name, {"calls": 0, "dur_s": 0.0, "self_s": 0.0})
        for key, value in agg.items():
            dst[key] += value


def layer_metrics(summary, counters, maxima, n_ops: int, overhead_ops_per_s: float) -> dict:
    """Per-op layer figures from merged span summaries and counters.

    ``summary`` must hold the benchmark's ``op`` spans; layer shares are
    measured against their total duration.
    """

    def agg(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_op(total: float) -> float:
        return total / n_ops

    op_time = agg(OP, "dur_s")
    layer_self = sum(a["self_s"] for name, a in summary.items() if name != OP)
    layer_self += counters["cli.interpreter_s"] + counters["cli.import_s"]
    values = {
        "states.substituted.calls": per_op(agg("states.substituted", "calls")),
        "states.substituted.self_s": per_op(agg("states.substituted", "self_s")),
        "states.substituted.terms_in": per_op(counters["states.substituted.terms_in"]),
        "states.substituted.terms_out": per_op(counters["states.substituted.terms_out"]),
        "states.project.calls": per_op(agg("states.project", "calls")),
        "states.project.self_s": per_op(agg("states.project", "self_s")),
        "states.project.kept_frac": ratio(
            counters["states.project.kept"], counters["states.project.terms"]
        ),
        "states.projector_probability.self_s": per_op(agg("states.projector_probability", "self_s")),
        "states.create.self_s": per_op(agg("states.create", "self_s")),
        "elements.apply.calls": per_op(agg("elements.apply", "calls")),
        "elements.apply.self_s": per_op(agg("elements.apply", "self_s")),
        "elements.us_per_term": 1e6 * ratio(
            agg("states.substituted", "self_s"), counters["states.substituted.terms_in"]
        ),
        "circuits.run_circuit.self_s": per_op(agg("circuits.run_circuit", "self_s")),
        "circuits.initial_state.self_s": per_op(agg("circuits.initial_state", "self_s")),
        "circuits.feed_forward.self_s": per_op(agg("circuits.feed_forward", "self_s")),
        "circuits.build.self_s": per_op(agg("circuits.build", "self_s")),
        "circuits.max_terms": maxima["circuits.max_terms"],
        "rails.calls": per_op(agg("rails", "calls")),
        "rails.self_s": per_op(agg("rails", "self_s")),
        "distinguishability.simulate.self_s": per_op(agg("distinguishability.simulate", "self_s")),
        "distinguishability.fit_p.self_s": per_op(agg("distinguishability.fit_p", "self_s")),
        "distinguishability.similarity.self_s": per_op(
            agg("distinguishability.similarity", "self_s")
        ),
        "distinguishability.fit_p.objective_evals": ratio(
            counters["distinguishability.fit_p.objective_evals"],
            agg("distinguishability.fit_p", "calls"),
        ),
        "dsl.parse.self_s": per_op(agg("dsl.parse", "self_s")),
        "dsl.serialize.self_s": per_op(agg("dsl.serialize", "self_s")),
        "dsl.parse.lines": per_op(counters["dsl.parse.lines"]),
        "reports.render.self_s": per_op(agg("reports.render", "self_s")),
        "cli.interpreter_s": per_op(counters["cli.interpreter_s"]),
        "cli.import_s": per_op(counters["cli.import_s"]),
        "cli.main.self_s": per_op(agg("cli.main", "self_s")),
        "verify.run_s": ratio(agg("verify.run", "dur_s"), agg("verify.run", "calls")),
        "trace.layer_share": ratio(layer_self, op_time),
        "trace.overhead_ops_per_s": overhead_ops_per_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
