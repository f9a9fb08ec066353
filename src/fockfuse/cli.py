"""Command-line front end.

Subcommands reproduce the model predictions and verification suites:
``fuse``, ``fission``, ``abstract-fuse``, ``abstract-fission``,
``basis-scan``, ``fidelity-curve``, ``fit-p``, ``run <file.lop>`` and
``verify``.  Output is deterministic byte-for-byte for identical arguments;
``--format json`` emits machine-readable reports with 12 significant
digits.  The env var FOCKFUSE_TOL overrides the default comparison
tolerance of 1e-10 used by ``verify``.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
import time
from pathlib import Path

import numpy as np

from .circuits import (
    apply_feed_forward,
    fission_feed_forward,
    fission_success_target,
    fused_target,
    product_qudit,
    run_circuit,
    run_fission,
    run_fusion,
)
from .distinguishability import (
    BASIS_KEYS,
    CLOSED_FORM_NOTE,
    ProbabilityMatrix,
    average_fidelity,
    closed_form_matrix,
    coincidence_weighted_fidelity,
    fit_p,
    get_basis,
    similarity,
    simulate_basis_matrix,
    simulated_average_fidelity,
    simulated_basis_mean_fidelity,
)
from .dsl import parse_circuit
from .rails import fission as rail_fission, fuse as rail_fuse
from .reports import REFERENCE, ExperimentReport
from .states import H, V, PureState, fidelity
from .verify import run_verification


def _parse_amplitudes(text: str, n: int | None = None) -> tuple[complex, ...]:
    """Comma-separated finite complex amplitudes, normalized; ``n`` fixes the count."""
    try:
        parts = [complex(chunk.strip().replace("i", "j")) for chunk in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse amplitudes from {text!r}") from None
    if n is not None and len(parts) != n:
        raise argparse.ArgumentTypeError(f"expected {n} comma-separated amplitudes, got {len(parts)}")
    if not all(cmath.isfinite(z) for z in parts):
        raise argparse.ArgumentTypeError(f"amplitudes must be finite, got {text!r}")
    norm = np.linalg.norm(parts)
    if norm == 0:
        raise argparse.ArgumentTypeError("amplitudes are all zero")
    return tuple(complex(z / norm) for z in parts)


def _qubit_arg(text: str) -> tuple[complex, ...]:
    return _parse_amplitudes(text, 2)


def _qudit_arg(text: str) -> tuple[complex, ...]:
    return _parse_amplitudes(text, 4)


def _complex_arg(text: str) -> complex:
    try:
        z = complex(text.replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from None
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"complex number must be finite, got {text!r}")
    return z


def _emit(args, report: ExperimentReport, csv_text: str | None = None) -> None:
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        payload = report.to_json()
    elif fmt == "csv":
        payload = csv_text if csv_text is not None else report.to_text()
    else:
        payload = report.to_text()
    if getattr(args, "out", None):
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)


def _branch_label(pattern) -> str:
    parts = []
    for group, req in pattern.requirements:
        modes = "+".join(sorted(group))
        parts.append(f"{modes}:{req}")
    return " ".join(parts)


def _amplitude_list(state: PureState, components) -> list[complex]:
    return [state.amplitude((((m, pol, ""), 1),)) for m, pol in components]


def cmd_fuse(args) -> int:
    if args.entangled is not None:
        amps = args.entangled
        outcomes = run_fusion(entangled=amps)
        parameters = {"entangled": list(amps)}
    else:
        outcomes = run_fusion(args.psi, args.phi)
        amps = product_qudit(args.psi, args.phi)
        parameters = {"psi": list(args.psi), "phi": list(args.phi)}
    target = fused_target(amps)
    rows = []
    total = 0.0
    for outcome in outcomes:
        corrected = apply_feed_forward(outcome)
        rows.append(
            {
                "branch": _branch_label(outcome.pattern),
                "probability": outcome.probability,
                "fidelity": fidelity(corrected, target),
            }
        )
        total += outcome.probability
    fused = apply_feed_forward(outcomes[0])
    components = (("t1", H), ("t1", V), ("t2", H), ("t2", V))
    tables = {
        "heralded branches": rows,
        "fused amplitudes (t1H, t1V, t2H, t2V)": _amplitude_list(
            fused.normalized(), components
        ),
        "summary": {
            "total success probability": total,
            "target fidelity": fidelity(fused, target),
        },
    }
    if args.dump_state:
        tables["state dump"] = {"fused": fused.to_canonical_text()}
    report = ExperimentReport("fuse", parameters, tables)
    _emit(args, report)
    return 0


def cmd_fission(args) -> int:
    outcomes = run_fission(args.amps)
    target = fission_success_target(args.amps)
    rows = []
    total = 0.0
    for outcome in outcomes:
        corrected = fission_feed_forward(outcome)
        rows.append(
            {
                "branch": _branch_label(outcome.pattern),
                "probability": outcome.probability,
                "fidelity": fidelity(corrected, target),
            }
        )
        total += outcome.probability
    split = fission_feed_forward(outcomes[0]).normalized()
    components = (("t", H), ("t", V), ("c", H), ("c", V))
    tables = {
        "heralded branches": rows,
        "split amplitudes (tH, tV, cH, cV)": _amplitude_list(split, components),
        "summary": {"total heralded probability": total},
    }
    if args.dump_state:
        tables["state dump"] = {"split": split.to_canonical_text()}
    report = ExperimentReport("fission", {"amps": list(args.amps)}, tables)
    _emit(args, report)
    return 0


def cmd_abstract_fuse(args) -> int:
    branches = rail_fuse(args.psi, args.phi, vacuum_amp=args.vacuum_amp)
    report = ExperimentReport(
        "abstract-fuse",
        {
            "psi": list(args.psi),
            "phi": list(args.phi),
            "vacuum_amp": args.vacuum_amp,
        },
        {
            "plus branch": {
                "probability": branches.plus_probability,
                "amplitudes": list(branches.plus_amps),
            },
            "minus branch": {
                "probability": branches.minus_probability,
                "amplitudes": list(branches.minus_amps),
                "corrected": list(branches.minus_corrected()),
            },
        },
    )
    _emit(args, report)
    return 0


def cmd_abstract_fission(args) -> int:
    state, probability = rail_fission(args.amps, vacuum_amp=args.vacuum_amp)
    kets = []
    for c_bit in (0, 1):
        for t_bit in (0, 1):
            occ = tuple(
                sorted(
                    (
                        ((f"c_{c_bit}", "", ""), 1),
                        ((f"t_{t_bit}", "", ""), 1),
                    )
                )
            )
            kets.append(state.amplitude(occ))
    report = ExperimentReport(
        "abstract-fission",
        {"amps": list(args.amps), "vacuum_amp": args.vacuum_amp},
        {
            "success branch": {
                "probability": probability,
                "amplitudes (c0t0, c0t1, c1t0, c1t1)": kets,
            }
        },
    )
    _emit(args, report)
    return 0


def cmd_basis_scan(args) -> int:
    basis = get_basis(args.basis)
    simulated = simulate_basis_matrix(basis, args.p)
    closed = closed_form_matrix(basis, args.p)
    agreement = similarity(simulated, closed)
    report = ExperimentReport(
        "basis-scan",
        {"basis": basis.key, "p": args.p},
        {
            "simulated": simulated,
            "closed form": closed,
            "summary": {
                "similarity(simulated, closed form)": agreement,
                "basis mean fidelity": simulated_basis_mean_fidelity(basis, args.p),
            },
        },
        references={"fitted_indistinguishability": REFERENCE.fitted_indistinguishability},
        notes=(CLOSED_FORM_NOTE,),
    )
    csv_text = (
        f"# basis {basis.key} p={args.p:.12g} simulated\n"
        + simulated.to_csv()
        + f"# basis {basis.key} p={args.p:.12g} closed form\n"
        + closed.to_csv()
    )
    _emit(args, report, csv_text)
    return 0


def cmd_fidelity_curve(args) -> int:
    if not (0.0 <= args.p_min <= args.p_max <= 1.0) or args.steps < 2:
        print("error: need 0 <= p-min <= p-max <= 1 and steps >= 2", file=sys.stderr)
        return 2
    rows = []
    for p in np.linspace(args.p_min, args.p_max, args.steps):
        p = float(p)
        row = {
            "p": p,
            "law": average_fidelity(p),
            "simulated": simulated_average_fidelity(p),
            "all16_weighted": coincidence_weighted_fidelity(p),
        }
        for key in BASIS_KEYS:
            row[f"basis_{key}"] = simulated_basis_mean_fidelity(key, p)
        rows.append(row)
    report = ExperimentReport(
        "fidelity-curve",
        {"p_min": args.p_min, "p_max": args.p_max, "steps": args.steps},
        {"fidelity vs p": rows},
        references={
            "measured_mean_fidelity": REFERENCE.measured_mean_fidelity,
            "measured_mean_fidelity_err": REFERENCE.measured_mean_fidelity_err,
        },
    )
    header = ["p", "law", "simulated", "all16_weighted"] + [f"basis_{k}" for k in BASIS_KEYS]
    csv_lines = [",".join(header)]
    for row in rows:
        csv_lines.append(",".join(f"{row[h]:.12g}" for h in header))
    _emit(args, report, "\n".join(csv_lines) + "\n")
    return 0


def cmd_fit_p(args) -> int:
    path = Path(args.input)
    text = path.read_text()
    if path.suffix.lower() == ".json":
        payload = json.loads(text)
        if not isinstance(payload, dict) or "entries" not in payload:
            raise ValueError(f"{path}: expected a JSON object with an 'entries' matrix")
        observed = ProbabilityMatrix.from_rows(
            payload.get("basis", args.basis),
            payload["entries"],
            payload.get("row_labels"),
            payload.get("col_labels"),
        )
    else:
        observed = ProbabilityMatrix.from_csv(text, basis=args.basis)
    estimate = fit_p(observed, args.basis)
    model = closed_form_matrix(args.basis, estimate)
    report = ExperimentReport(
        "fit-p",
        {"basis": args.basis, "input": str(path)},
        {
            "fit": {
                "p": estimate,
                "similarity at fit": similarity(observed, model),
                "mean fidelity at fit": average_fidelity(estimate),
            }
        },
        references={
            "fitted_indistinguishability": REFERENCE.fitted_indistinguishability,
            "measured_similarity": REFERENCE.measured_similarity,
        },
    )
    _emit(args, report)
    return 0


def cmd_run(args) -> int:
    path = Path(args.circuit)
    if not path.exists() and path.suffix == ".lop" and "/" not in args.circuit:
        from importlib import resources

        shipped = resources.files("fockfuse.data").joinpath(path.name)
        if shipped.is_file():
            text = shipped.read_text()
        else:
            print(f"error: no such circuit file {args.circuit!r}", file=sys.stderr)
            return 2
    else:
        text = path.read_text()
    circuit = parse_circuit(text)
    bindings = {}
    for item in args.bind or ():
        name, _, amps = item.partition("=")
        if not amps:
            print(f"error: --bind needs name=a0,a1,... (got {item!r})", file=sys.stderr)
            return 2
        try:
            bindings[name.strip()] = _parse_amplitudes(amps)
        except argparse.ArgumentTypeError as exc:
            print(f"error: --bind {name.strip()}: {exc}", file=sys.stderr)
            return 2
    missing = [n for n in circuit.slot_names() if n not in bindings]
    if missing:
        print(f"error: unbound input slots: {', '.join(missing)}", file=sys.stderr)
        return 2
    outcomes = run_circuit(circuit, bindings=bindings)
    rows = []
    dumps = {}
    for idx, outcome in enumerate(outcomes):
        rows.append(
            {"pattern": _branch_label(outcome.pattern), "probability": outcome.probability}
        )
        if args.dump_state and isinstance(outcome.state, PureState) and not outcome.state.is_zero:
            dumps[f"outcome {idx}"] = outcome.state.to_canonical_text()
    tables = {"detection outcomes": rows}
    if dumps:
        tables["state dump"] = dumps
    report = ExperimentReport(
        "run",
        {"circuit": str(args.circuit), "bindings": {k: list(v) for k, v in bindings.items()}},
        tables,
    )
    _emit(args, report)
    return 0


def cmd_verify(args) -> int:
    started = time.monotonic()
    failures = run_verification(seed=args.seed)
    print(f"verify finished in {time.monotonic() - started:.2f}s")
    return 1 if failures else 0


def _add_output_flags(parser: argparse.ArgumentParser, formats=("text", "json")) -> None:
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    parser.add_argument("--format", choices=formats, default="text", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockfuse",
        description="Simulate linear-optical qubit fusion and fission.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuse", help="run the optical fusion apparatus")
    p.add_argument("--psi", type=_qubit_arg, help="target qubit amplitudes a0,a1")
    p.add_argument("--phi", type=_qubit_arg, help="control qubit amplitudes a0,a1")
    p.add_argument(
        "--entangled", type=_qudit_arg, help="joint t/c amplitudes a0,a1,a2,a3"
    )
    p.add_argument("--dump-state", action="store_true", help="include the serialized state")
    _add_output_flags(p)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("fission", help="run the optical fission apparatus")
    p.add_argument("--amps", type=_qudit_arg, required=True, help="qudit amplitudes a0,a1,a2,a3")
    p.add_argument("--dump-state", action="store_true")
    _add_output_flags(p)
    p.set_defaults(func=cmd_fission)

    p = sub.add_parser("abstract-fuse", help="rail-level fusion (protocol oracle)")
    p.add_argument("--psi", type=_qubit_arg, required=True)
    p.add_argument("--phi", type=_qubit_arg, required=True)
    p.add_argument("--vacuum-amp", type=_complex_arg, default=1.0 + 0j)
    _add_output_flags(p)
    p.set_defaults(func=cmd_abstract_fuse)

    p = sub.add_parser("abstract-fission", help="rail-level fission (protocol oracle)")
    p.add_argument("--amps", type=_qudit_arg, required=True)
    p.add_argument("--vacuum-amp", type=_complex_arg, default=1.0 + 0j)
    _add_output_flags(p)
    p.set_defaults(func=cmd_abstract_fission)

    p = sub.add_parser("basis-scan", help="simulated and closed-form basis matrices")
    p.add_argument("--basis", choices=BASIS_KEYS, required=True)
    p.add_argument("--p", type=float, required=True, help="pair indistinguishability in [0,1]")
    _add_output_flags(p, formats=("text", "json", "csv"))
    p.set_defaults(func=cmd_basis_scan)

    p = sub.add_parser("fidelity-curve", help="fidelity law and per-basis means vs p")
    p.add_argument("--p-min", type=float, default=0.0)
    p.add_argument("--p-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=21)
    _add_output_flags(p, formats=("text", "json", "csv"))
    p.set_defaults(func=cmd_fidelity_curve)

    p = sub.add_parser("fit-p", help="fit the indistinguishability to an observed matrix")
    p.add_argument("--input", required=True, help="matrix file (.csv as emitted, or .json)")
    p.add_argument("--basis", choices=BASIS_KEYS, default="ii")
    _add_output_flags(p)
    p.set_defaults(func=cmd_fit_p)

    p = sub.add_parser("run", help="parse and run a circuit description file")
    p.add_argument("circuit", help="path to a .lop file")
    p.add_argument(
        "--bind",
        action="append",
        metavar="NAME=A0,A1,...",
        help="bind a qubit/qudit slot (repeatable); amplitudes are normalized",
    )
    p.add_argument("--dump-state", action="store_true")
    _add_output_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="run the full invariant suite")
    p.add_argument("--seed", type=int, default=12345, help="seed for randomized checks")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fuse" and args.entangled is None and (args.psi is None or args.phi is None):
        parser.error("fuse needs either --psi and --phi, or --entangled")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
