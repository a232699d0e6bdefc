"""Structured run reports with deterministic serialization.

All numbers are quantized to 12 significant digits (values below 1e-12
in modulus collapse to 0), so emitted documents are byte-identical across
runs and survive a parse round-trip unchanged.

The branch table, nearly all of a large report, stays as
``analysis.BranchTable`` arrays until ``emit_report`` streams it to a file
object in chunks of ``ROWS_PER_CHUNK`` rows, each in one ``%`` pass that
formats its numbers in place (a row that may hold an integral value, which
``json.dumps`` writes with ".0", goes through a token template).  The table
holds each branch's memory string as an integer row, and the same pass
prints its label from it, in pieces of at most 8 binary digits looked up by
the row's bit fields in tables of digit strings.  The writer holds one
chunk's numbers, arguments and text at a time, so its temporary memory
does not grow with the row count.  The bytes are those of the indented
``json.dumps``, which writes the rest and stays the format's definition.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

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


@dataclass(frozen=True, eq=False)
class RunReport:
    """JSON-shaped result of one run.  ``build_report`` gives a ``BranchTable``,
    quantized as it is written; ``parse_report`` gives the document's dict."""

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


def build_report(scenario: Scenario, state: StateVector) -> RunReport:
    """Perform the scenario's requested analyses on a finished run."""
    norm = state.norm()
    norm_dev = abs(norm - 1.0)
    checks: dict = {"norm": {"pass": norm_dev <= NORM_TOL, "deviation": _q(norm_dev)}}
    branch_table = analysis.BranchTable(0, np.zeros(0, np.int64), np.zeros(0),
                                        np.zeros((0, 8), np.complex128))
    marginals: list = []
    probabilities: dict = {}

    for request in scenario.analyses:
        if request.kind == "branches":
            # finite and normalized, as branch_decompose checks: the writer cannot fail
            branch_table = analysis.branch_decompose(state)
            dev = abs(branch_table.weight_sum() - 1.0)
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
        outcome, _, prob = machine.measure_control(state, scenario.measure_seed)
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


ROWS_PER_CHUNK = 1024
_PAIR = "\n        [\n          %.12g,\n          %.12g\n        ]"
# a row after its label's closing quote
_ENTRY = (': {\n      "probability": %.12g,\n      "substate": ['
          + ",".join([_PAIR] * 8) + "\n      ]\n    }")
_TOKEN_ENTRY = _ENTRY.replace("%.12g", "%s")
# _DIGITS[w][i] is i in w binary digits: a label's pieces, looked up per chunk
_DIGITS = {w: np.array([format(i, f"0{w}b") for i in range(1 << w)], dtype=object)
           for w in range(1, 9)}


def _integral_rows(a: np.ndarray) -> np.ndarray:
    """Rows of an (r, k) array holding an x whose ``"%.12g"`` text has no "."
    and no "e", or 0 < |x| < ZERO_FLOOR (a superset): ``_tokens`` writes them."""
    m = np.abs(a)
    if not math.isfinite(m.max()):  # "%.12g" writes nan and inf without complaint
        raise ValidationError("report values must be finite")
    return (np.abs(a - np.rint(a)) <= 1e-11 * m + ZERO_FLOOR).any(axis=1)


def emit_report(report: RunReport, out) -> None:
    """Write ``json.dumps(report.to_document(), indent=2, sort_keys=True)`` to
    ``out``, for a report from ``build_report`` (its table a ``BranchTable``,
    whose labels hold only the digits 0 and 1 and so are written unescaped)."""
    table = report.branch_table
    # "branch_table" is the first key, so the first "{}" is its placeholder
    head, _, tail = json.dumps(replace(report, branch_table={}).to_document(),
                               indent=2, sort_keys=True).partition("{}")
    out.write(head)
    n = table.n_memories
    # (shift, digits) per label piece, most significant first: only the first is short
    pieces = [(s, _DIGITS[min(n - s, 8)]) for s in range((n - 1) // 8 * 8, -1, -8)]
    k = len(pieces)
    label = '\n    "' + "%s" * k + '"'
    templates = (label + _ENTRY, label + _TOKEN_ENTRY)
    for start in range(0, table.rows.size, ROWS_PER_CHUNK):
        rows = slice(start, start + ROWS_PER_CHUNK)
        numbers = _numbers(table, rows)
        integral = _integral_rows(numbers)
        args = np.empty((len(numbers), k + 17), dtype=object)
        for j, (shift, digits) in enumerate(pieces):
            args[:, j] = digits[(table.rows[rows] >> shift) & 255]
        args[:, k:] = numbers
        args[integral, k:] = np.array(_tokens(numbers[integral]), object).reshape(-1, 17)
        args = tuple(args.ravel())  # the tuple alone holds the chunk's arguments
        out.write("," if start else "{")
        out.write(",".join(map(templates.__getitem__, integral.tolist())) % args)
    out.write(("\n  }" if table.rows.size else "{}") + tail)


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
