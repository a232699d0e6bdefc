"""Structured run reports with deterministic serialization.

All numbers are quantized to 12 significant digits at assembly time
(values below 1e-12 in modulus collapse to 0), so emitted documents are
byte-identical across runs and survive a parse round-trip unchanged.

The branch table, nearly all of a large report, is quantized in one array
pass and written by ``_table_text`` in the bytes of the indented
``json.dumps``, which writes the rest and stays the format's definition.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np

from . import analysis, machine
from .errors import ParseError, ValidationError
from .linalg import DEFAULT_TOLERANCES, Tolerances
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


def _q_array(a) -> np.ndarray:
    """``_q`` of every element of a real array, in one pass."""
    a = np.asarray(a, dtype=np.float64)
    text = "%.12g " * a.size % tuple(a.ravel().tolist())
    if "n" in text:  # "%.12g" writes only nan and inf with an n
        raise ValidationError("report values must be finite")
    q = np.fromstring(text, sep=" ").reshape(a.shape)  # float()'s strtod
    q[np.abs(a) < ZERO_FLOOR] = 0.0
    return q


@dataclass(frozen=True)
class RunReport:
    """JSON-shaped result of one scenario run (all values pre-quantized)."""

    scenario_name: str
    final_norm: float
    branch_table: dict
    marginals: list
    probabilities: dict
    checks: dict
    measurement: dict | None = None

    def to_document(self) -> dict:
        doc = dict(vars(self))
        if self.measurement is None:
            del doc["measurement"]
        return doc


def build_report(
    scenario: Scenario,
    state: StateVector,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
    seed_override: int | None = None,
) -> RunReport:
    """Perform the scenario's requested analyses on a finished run."""
    norm_dev = abs(state.norm() - 1.0)
    checks: dict = {
        "norm": {"pass": norm_dev <= tolerances.norm, "deviation": _q(norm_dev)}
    }
    branch_table: dict = {}
    marginals: list = []
    probabilities: dict = {}

    for request in scenario.analyses:
        if request.kind == "branches":
            table = analysis.branch_decompose(state)
            r = len(table.entries)
            total = 0.0  # a plain loop: sum() compensates from Python 3.12
            for p in table.weights.tolist():
                total += p
            q = _q_array(np.concatenate(
                [table.weights, table.substates.view(np.float64).ravel()]
            ))
            subs = q[r:].reshape(r, 8, 2).tolist()
            for label, p, sub in zip(table.entries, q[:r].tolist(), subs):
                branch_table[label] = {"probability": p, "substate": sub}
            dev = abs(total - 1.0)
            checks["branch_probability_sum"] = {
                "pass": dev <= tolerances.norm, "deviation": _q(dev)
            }
        elif request.kind == "marginal":
            reg = request.registers[0]
            rep = analysis.MarginalReport.from_matrix(
                reg, analysis.register_marginal(state, {reg})
            )
            marginals.append({
                "register": rep.register,
                "matrix": _q_array(np.dstack([rep.matrix.real, rep.matrix.imag])).tolist(),
                "max_offdiag": _q(rep.max_offdiag),
                "diagonal_probs": [_q(p) for p in rep.diagonal_probs],
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
    if scenario.measure is not None:
        seed = scenario.measure.seed if seed_override is None else seed_override
        outcome, _, prob = machine.measure_control(state, seed)
        measurement = {"outcome": outcome, "probability": _q(prob)}

    return RunReport(
        scenario_name=scenario.name,
        final_norm=_q(state.norm()),
        branch_table=branch_table,
        marginals=marginals,
        probabilities=probabilities,
        checks=checks,
        measurement=measurement,
    )


_PAIR = "\n        [\n          %r,\n          %r\n        ]"


@lru_cache(maxsize=16)
def _entry_format(n_pairs: int) -> str:
    substate = "[" + ",".join([_PAIR] * n_pairs) + "\n      ]" if n_pairs else "[]"
    return '    %s: {\n      "probability": %r,\n      "substate": ' + substate + "\n    }"


def _table_text(table: dict) -> str:
    """``json.dumps`` of a branch table at depth 1 of an indented document.

    Numbers are finite floats or ints (``parse_report`` checks this), whose
    ``%r`` is their ``json.dumps`` text; labels are escaped as it escapes them.
    """
    formats, args = [], []
    for label in sorted(table):
        entry = table[label]
        formats.append(_entry_format(len(entry["substate"])))
        args += (encode_basestring_ascii(label), entry["probability"])
        for pair in entry["substate"]:
            args += pair
    return "{\n" + ",\n".join(formats) % tuple(args) + "\n  }" if table else "{}"


def emit_report(report: RunReport) -> str:
    """The bytes of ``json.dumps(report.to_document(), indent=2, sort_keys=True)``."""
    doc = report.to_document()
    table = _table_text(doc.pop("branch_table"))  # the first key in sorted order
    return '{\n  "branch_table": ' + table + "," + json.dumps(doc, indent=2, sort_keys=True)[1:]


def _is_number(x) -> bool:
    return type(x) in (int, float) and x - x == 0  # not bool, nan or inf


def parse_report(text: str) -> RunReport:
    """Inverse of emit_report; parse(emit(r)) == r."""
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
