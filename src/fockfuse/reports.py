"""Experiment reports: deterministic tables and machine-readable output.

Reports embed the exact parameters and the library version so a run can be
reproduced from its own output.  JSON output carries 12 significant digits
with sorted keys; human tables use 6.  Measured reference constants from
the demonstration experiment are included for comparison only and are never
used as pass/fail oracles.  A table with a ``table_lines`` method, a
probability matrix, renders itself: as those lines, and as its JSON object.
"""

from __future__ import annotations

import json

from . import __version__
from .states import Record


class ReferenceConstants(Record):
    """Documented experimental reference values (comparison only)."""

    measured_mean_fidelity: float = 0.750
    measured_mean_fidelity_err: float = 0.013
    measured_similarity: float = 0.940
    measured_similarity_err: float = 0.009
    fitted_indistinguishability: float = 0.77
    hom_visibility_same_pair: float = 0.94
    hom_visibility_cross_pair: float = 0.75


REFERENCE = ReferenceConstants()


def _round12(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, complex):
        return {"re": _round12(value.real), "im": _round12(value.imag)}
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    if hasattr(value, "table_lines"):
        return _round12(value.to_json_obj())
    return value


def _fmt6(value) -> str:
    if isinstance(value, complex):
        sign = "+" if value.imag >= 0 else "-"
        return f"{value.real:.6f}{sign}{abs(value.imag):.6f}j"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


class ExperimentReport(Record):
    """A report, which may be changed after it is built and so has no hash."""

    name: str
    parameters: dict
    tables: dict = {}
    references: dict = {}
    notes: tuple = ()

    __hash__ = None
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "version": __version__,
            "parameters": _round12(self.parameters),
            "tables": _round12(self.tables),
            "references": _round12(self.references),
            "notes": list(self.notes),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"# {self.name} (fockfuse {__version__})"]
        if self.parameters:
            params = " ".join(f"{k}={_fmt6(v)}" for k, v in self.parameters.items())
            lines.append(f"parameters: {params}")
        for title, table in self.tables.items():
            lines.append("")
            lines.append(f"== {title} ==")
            lines.extend(_render_table(table))
        if self.references:
            lines.append("")
            lines.append("== reference constants (documentation only) ==")
            for k, v in self.references.items():
                lines.append(f"  {k} = {_fmt6(v)}")
        for note in self.notes:
            lines.append("")
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def _render_table(table) -> list[str]:
    if hasattr(table, "table_lines"):
        return table.table_lines()
    if isinstance(table, dict):
        return [f"  {k} = {_fmt6(v)}" for k, v in table.items()]
    if isinstance(table, (list, tuple)):
        out = []
        for row in table:
            if isinstance(row, dict):
                out.append("  " + " ".join(f"{k}={_fmt6(v)}" for k, v in row.items()))
            elif isinstance(row, (list, tuple)):
                out.append("  " + " ".join(_fmt6(v) for v in row))
            else:
                out.append(f"  {_fmt6(row)}")
        return out
    return [f"  {_fmt6(table)}"]
