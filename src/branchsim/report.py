"""Structured run reports with deterministic serialization.

All numbers are quantized to 12 significant digits (values below 1e-12
in modulus collapse to 0), so emitted documents are byte-identical across
runs and survive a parse round-trip unchanged.

The branch table, nearly all of a large report, stays as
``analysis.BranchTable`` arrays until ``emit_report`` streams it to a file
object, ``ROWS_PER_CHUNK`` rows at a time, formatting each number once.
The bytes are those of the indented ``json.dumps``, which writes the rest
and stays the format's definition.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii

import numpy as np

from . import analysis, machine
from .errors import ParseError, ValidationError
from .linalg import NORM_TOL
from .machine import StateVector
from .scenario import Scenario, load_json

ZERO_FLOOR = 1e-12


def _q(x: float) -> float:
    """Quantize to 12 significant digits; sub-1e-12 dust becomes 0."""
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError("report values must be finite")
    if abs(x) < ZERO_FLOOR:
        return 0.0
    return float(f"{x:.12g}")


def _tokens(a) -> list[str]:
    """``json.dumps(_q(x))`` for each x of a real array with |x| < 1e12: the
    ``"%.12g"`` text, with ".0" after an integral one (``repr`` agrees)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    text = "%.12g " * a.size % tuple(np.where(np.abs(a) < ZERO_FLOOR, 0.0, a).tolist())
    if "n" in text:  # "%.12g" writes only nan and inf with an n
        raise ValidationError("report values must be finite")
    return [t if "." in t or "e" in t else t + ".0" for t in text.split()]


def _quantized(a) -> np.ndarray:
    """``_q`` of every element of a real array, read back from its tokens."""
    return np.array(list(map(float, _tokens(a)))).reshape(np.shape(a))


def _numbers(table: analysis.BranchTable, rows=slice(None)) -> np.ndarray:
    """One row per branch: its weight, then its substate's (re, im) pairs."""
    return np.column_stack([table.weights[rows], table.substates[rows].view(np.float64)])


@dataclass(frozen=True)
class RunReport:
    """JSON-shaped result of one run; a ``BranchTable`` is quantized as it is written."""

    scenario_name: str
    final_norm: float
    branch_table: analysis.BranchTable | dict
    marginals: list
    probabilities: dict
    checks: dict
    measurement: dict | None = None

    def to_document(self) -> dict:
        doc = dict(vars(self))
        if self.measurement is None:
            del doc["measurement"]
        if isinstance(self.branch_table, analysis.BranchTable):
            q = _quantized(_numbers(self.branch_table))
            rows = zip(self.branch_table.entries, q[:, 0].tolist(),
                       q[:, 1:].reshape(-1, 8, 2).tolist())
            doc["branch_table"] = {k: {"probability": p, "substate": s} for k, p, s in rows}
        return doc


def build_report(
    scenario: Scenario,
    state: StateVector,
    seed_override: int | None = None,
) -> RunReport:
    """Perform the scenario's requested analyses on a finished run."""
    norm = state.norm()
    norm_dev = abs(norm - 1.0)
    checks: dict = {"norm": {"pass": norm_dev <= NORM_TOL, "deviation": _q(norm_dev)}}
    branch_table: analysis.BranchTable | dict = {}
    marginals: list = []
    probabilities: dict = {}

    for request in scenario.analyses:
        if request.kind == "branches":
            # finite and normalized, as branch_decompose checks: the writer cannot fail
            branch_table = analysis.branch_decompose(state)
            total = 0.0  # a plain loop: sum() compensates from Python 3.12
            for p in branch_table.weights.tolist():
                total += p
            dev = abs(total - 1.0)
            checks["branch_probability_sum"] = {"pass": dev <= NORM_TOL,
                                                "deviation": _q(dev)}
        elif request.kind == "marginal":
            reg = request.registers[0]
            rho = analysis.register_marginal(state, {reg})
            marginals.append({
                "register": reg,
                "matrix": _quantized(np.dstack([rho.real, rho.imag])).tolist(),
                "max_offdiag": _q(abs(rho[0, 1])),
                "diagonal_probs": _quantized(rho.diagonal().real).tolist(),
            })
        elif request.kind == "outcome":
            reg = request.registers[0]
            for outcome in (0, 1):
                probabilities[f"{reg}_{outcome}"] = _q(
                    analysis.outcome_probability(state, reg, outcome)
                )
        elif request.kind == "separability":
            reg = request.registers[0]
            separable, pur = analysis.separability_check(state, reg)
            checks[f"separability_{reg}"] = {
                "separable": separable, "purity": _q(pur)
            }
        elif request.kind == "witness":
            a, b = request.registers
            entangled, fid = analysis.no_cloning_witness(state, a, b)
            checks[f"witness_{a}_{b}"] = {
                "entangled": entangled, "product_fidelity": _q(fid)
            }

    measurement = None
    if scenario.measure_seed is not None:
        seed = scenario.measure_seed if seed_override is None else seed_override
        outcome, _, prob = machine.measure_control(state, seed)
        measurement = {"outcome": outcome, "probability": _q(prob)}

    return RunReport(
        scenario_name=scenario.name,
        final_norm=_q(norm),
        branch_table=branch_table,
        marginals=marginals,
        probabilities=probabilities,
        checks=checks,
        measurement=measurement,
    )


ROWS_PER_CHUNK = 4096
_PAIR = "\n        [\n          %s,\n          %s\n        ]"
_ENTRY = ('    %s: {\n      "probability": %s,\n      "substate": ['
          + ",".join([_PAIR] * 8) + "\n      ]\n    }")


def emit_report(report: RunReport, out) -> None:
    """Write ``json.dumps(report.to_document(), indent=2, sort_keys=True)`` to ``out``."""
    table = report.branch_table
    if isinstance(table, dict):  # e.g. a parsed report: json.dumps is the definition
        out.write(json.dumps(report.to_document(), indent=2, sort_keys=True))
        return
    # "branch_table" is the first key, so the first "{}" is its placeholder
    head, _, tail = json.dumps(replace(report, branch_table={}).to_document(),
                               indent=2, sort_keys=True).partition("{}")
    out.write(head)
    labels = list(map(encode_basestring_ascii, table.entries))
    for start in range(0, len(labels), ROWS_PER_CHUNK):
        rows = slice(start, start + ROWS_PER_CHUNK)
        args = [None] * (18 * len(labels[rows]))  # label, weight, 8 (re, im) pairs
        args[::18] = labels[rows]
        tokens = _tokens(_numbers(table, rows))
        for k in range(17):
            args[k + 1::18] = tokens[k::17]
        out.write(("{\n" if start == 0 else ",\n")
                  + ",\n".join([_ENTRY] * len(labels[rows])) % tuple(args))
    out.write(("\n  }" if labels else "{}") + tail)


def _is_number(x) -> bool:
    return type(x) in (int, float) and x - x == 0  # not bool, nan or inf


def parse_report(text: str) -> RunReport:
    """Inverse of emit_report: the parsed report has the written one's document."""
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise ParseError("report document must be a JSON object")
    fields = ("scenario_name", "final_norm", "branch_table", "marginals",
              "probabilities", "checks")
    for field in fields:
        if field not in doc:
            raise ParseError(f"missing required field {field!r}")
    table = doc["branch_table"]
    if not isinstance(table, dict) or not all(
            isinstance(e, dict) and e.keys() == {"probability", "substate"}
            and _is_number(e["probability"]) and isinstance(e["substate"], list)
            and all(isinstance(p, list) and len(p) == 2 and all(map(_is_number, p))
                    for p in e["substate"]) for e in table.values()):
        raise ParseError("entries must be {probability: x, substate: [[x, x], ...]}"
                         " with finite numbers x", "branch_table")
    return RunReport(**{f: doc[f] for f in fields}, measurement=doc.get("measurement"))
