"""Command-line front end.

Subcommands reproduce the model predictions and verification suites:
``fuse``, ``fission``, ``abstract-fuse``, ``abstract-fission``,
``basis-scan``, ``fidelity-curve``, ``fit-p``, ``run <file.lop>`` and
``verify``.  Output is deterministic byte-for-byte for identical arguments;
``--format json`` emits machine-readable reports with 12 significant
digits.  ``verify`` runs every check of ``fockfuse.verify.CHECKS`` at one
seed, comparing at a fixed tolerance of 1e-10.

A subcommand imports only the modules it runs.  The rail protocols, the
source model and the verification suite are imported on first use, through
the package, by the module ``__getattr__``; handlers read those names as
attributes of this module (``_cli.fit_p``), so a name rebound here is called.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from pathlib import Path

from .circuits import (
    BASIS_KEYS,
    FUSED_KETS,
    SPLIT_KETS,
    apply_feed_forward,
    corrected,
    fission_feed_forward,
    fission_success_target,
    fused_target,
    run_circuit,
    run_fission,
    run_fusion,
)
from .dsl import load_named_circuit, parse_circuit
from .reports import REFERENCE, ExperimentReport
from .states import PureState, fidelity, normalized_amplitudes, product_qudit

#: the package's names that handlers import on first use
_LAZY = frozenset((
    "ProbabilityMatrix average_fidelity closed_form_matrix coincidence_weighted_fidelity fit_p "
    "get_basis rail_fission rail_fuse run_verification similarity simulate_basis_matrix "
    "simulated_average_fidelity simulated_basis_mean_fidelity"
).split())
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


def _complex(text: str) -> complex:
    """A complex number written with ``i`` or ``j`` as the imaginary unit."""
    return complex(text.replace("i", "j"))


def _parse_amplitudes(text: str, n: int | None = None) -> tuple[complex, ...]:
    """Comma-separated complex amplitudes, normalized; ``n`` fixes the count."""
    try:
        parts = [_complex(chunk) for chunk in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse amplitudes from {text!r}") from None
    try:
        return normalized_amplitudes(parts, len(parts) if n is None else n)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _qubit_arg(text: str) -> tuple[complex, ...]:
    return _parse_amplitudes(text, 2)


def _qudit_arg(text: str) -> tuple[complex, ...]:
    return _parse_amplitudes(text, 4)


def _passthrough_arg(text: str) -> complex:
    """A CNOT's vacuum passthrough amplitude: a complex number of modulus at most 1."""
    try:
        z = _complex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from None
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"complex number must be finite, got {text!r}")
    if abs(z) > 1.0:
        raise argparse.ArgumentTypeError(f"passthrough amplitude must have modulus at most 1, got {text!r}")
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
    return " ".join(f"{'+'.join(sorted(group))}:{req}" for group, req in pattern.requirements)


def _heralded_rows(outcomes, feed_forward, target) -> tuple[list[dict], list[PureState]]:
    """A report row per heralded branch, and each branch's corrected state."""
    corrected = [feed_forward(outcome) for outcome in outcomes]
    rows = [
        {
            "branch": _branch_label(outcome.pattern),
            "probability": outcome.probability,
            "fidelity": fidelity(state, target),
        }
        for outcome, state in zip(outcomes, corrected)
    ]
    return rows, corrected


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
    rows, corrected = _heralded_rows(outcomes, apply_feed_forward, target)
    fused = corrected[0]
    tables = {
        "heralded branches": rows,
        "fused amplitudes (t1H, t1V, t2H, t2V)": fused.normalized().amplitudes(FUSED_KETS),
        "summary": {
            "total success probability": sum(outcome.probability for outcome in outcomes),
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
    rows, corrected = _heralded_rows(outcomes, fission_feed_forward, target)
    split = corrected[0].normalized()
    tables = {
        "heralded branches": rows,
        "split two-photon amplitudes (tH cH, tV cH, tH cV, tV cV)": split.amplitudes(SPLIT_KETS),
        "summary": {"total heralded probability": sum(outcome.probability for outcome in outcomes)},
    }
    if args.dump_state:
        tables["state dump"] = {"split": split.to_canonical_text()}
    report = ExperimentReport("fission", {"amps": list(args.amps)}, tables)
    _emit(args, report)
    return 0


def cmd_abstract_fuse(args) -> int:
    branches = _cli.rail_fuse(args.psi, args.phi, vacuum_amp=args.vacuum_amp)
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
    from .rails import SPLIT_RAIL_KETS

    state, probability = _cli.rail_fission(args.amps, vacuum_amp=args.vacuum_amp)
    report = ExperimentReport(
        "abstract-fission",
        {"amps": list(args.amps), "vacuum_amp": args.vacuum_amp},
        {
            "success branch": {
                "probability": probability,
                "amplitudes (c0t0, c0t1, c1t0, c1t1)": state.amplitudes(SPLIT_RAIL_KETS),
            }
        },
    )
    _emit(args, report)
    return 0


def cmd_basis_scan(args) -> int:
    from .distinguishability import CLOSED_FORM_NOTE

    basis = _cli.get_basis(args.basis)
    simulated = _cli.simulate_basis_matrix(basis, args.p)
    closed = _cli.closed_form_matrix(basis, args.p)
    agreement = _cli.similarity(simulated, closed)
    report = ExperimentReport(
        "basis-scan",
        {"basis": basis.key, "p": args.p},
        {
            "simulated": simulated,
            "closed form": closed,
            "summary": {
                "similarity(simulated, closed form)": agreement,
                "basis mean fidelity": _cli.simulated_basis_mean_fidelity(basis, args.p),
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
        raise ValueError("need 0 <= p-min <= p-max <= 1 and steps >= 2")
    step = (args.p_max - args.p_min) / (args.steps - 1)
    rows = []
    for p in [args.p_min + i * step for i in range(args.steps - 1)] + [args.p_max]:
        row = {
            "p": p,
            "law": _cli.average_fidelity(p),
            "simulated": _cli.simulated_average_fidelity(p),
            "all16_weighted": _cli.coincidence_weighted_fidelity(p),
        }
        for key in BASIS_KEYS:
            row[f"basis_{key}"] = _cli.simulated_basis_mean_fidelity(key, p)
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
    try:  # every error in the file's contents names the file once
        if path.suffix.lower() == ".json":
            payload = json.loads(text)
            if not isinstance(payload, dict) or "entries" not in payload:
                raise ValueError("expected a JSON object with an 'entries' matrix")
            observed = _cli.ProbabilityMatrix(
                payload.get("basis", args.basis),
                payload["entries"],
                payload.get("row_labels"),
                payload.get("col_labels"),
            )
            if observed.basis.lower() in BASIS_KEYS and observed.basis.lower() != args.basis:
                raise ValueError(f"file basis {observed.basis!r} differs from --basis {args.basis}")
        else:
            observed = _cli.ProbabilityMatrix.from_csv(text, basis=args.basis)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    estimate = _cli.fit_p(observed, args.basis)
    model = _cli.closed_form_matrix(args.basis, estimate)
    report = ExperimentReport(
        "fit-p",
        {"basis": args.basis, "input": str(path)},
        {
            "fit": {
                "p": estimate,
                "similarity at fit": _cli.similarity(observed, model),
                "mean fidelity at fit": _cli.average_fidelity(estimate),
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
        try:
            circuit = load_named_circuit(path.stem)
        except FileNotFoundError:
            raise ValueError(f"no such circuit file {args.circuit!r}") from None
    else:
        circuit = parse_circuit(path.read_text())
    bindings = {}
    for item in args.bind or ():
        name, _, amps = item.partition("=")
        name = name.strip()
        if not amps:
            raise ValueError(f"--bind needs name=a0,a1,... (got {item!r})")
        if name in bindings:
            raise ValueError(f"--bind {name}: slot bound twice")
        try:
            bindings[name] = _parse_amplitudes(amps)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"--bind {name}: {exc}") from None
    outcomes = run_circuit(circuit, bindings=bindings)
    rows = []
    dumps = {}
    for idx, outcome in enumerate(outcomes):
        rows.append(
            {"pattern": _branch_label(outcome.pattern), "probability": outcome.probability}
        )
        if args.dump_state and not outcome.state.is_zero:
            dumps[f"outcome {idx}"] = outcome.state.to_canonical_text()
            if circuit.output:  # the branch through its declared corrections
                dumps[f"corrected {idx}"] = corrected(outcome, circuit).to_canonical_text()
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
    return 1 if _cli.run_verification(seed=args.seed) else 0


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
    p.add_argument("--vacuum-amp", type=_passthrough_arg, default=1.0 + 0j, help="modulus at most 1, compared exactly")
    _add_output_flags(p)
    p.set_defaults(func=cmd_abstract_fuse)

    p = sub.add_parser("abstract-fission", help="rail-level fission (protocol oracle)")
    p.add_argument("--amps", type=_qudit_arg, required=True)
    p.add_argument("--vacuum-amp", type=_passthrough_arg, default=1.0 + 0j, help="modulus at most 1, compared exactly")
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


#: options whose value may start with a minus sign (``--psi -0.6,0.8``)
_AMPLITUDE_OPTIONS = ("--psi", "--phi", "--entangled", "--amps", "--vacuum-amp")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join an amplitude option and a following ``-…`` value into
    ``--option=-…``; argparse would read the value as an unknown option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _AMPLITUDE_OPTIONS and arg[:1] == "-" and arg[1:2] not in ("-", "h"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    if args.command == "fuse":
        qubits = [q for q in (args.psi, args.phi) if q is not None]
        if len(qubits) != (0 if args.entangled is not None else 2):
            parser.error("fuse needs either --psi and --phi, or --entangled alone")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
