"""Structured run reports with deterministic serialization.

All numbers are quantized to 12 significant digits at assembly time
(values below 1e-12 in modulus collapse to 0), so emitted documents are
byte-identical across runs and survive a parse round-trip unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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


def _q_pair(z: complex) -> list[float]:
    return [_q(z.real), _q(z.imag)]


def _q_matrix(m: np.ndarray) -> list[list[list[float]]]:
    return [[_q_pair(complex(m[i, j])) for j in range(m.shape[1])]
            for i in range(m.shape[0])]


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
        doc = {
            "scenario_name": self.scenario_name,
            "final_norm": self.final_norm,
            "branch_table": self.branch_table,
            "marginals": self.marginals,
            "probabilities": self.probabilities,
            "checks": self.checks,
        }
        if self.measurement is not None:
            doc["measurement"] = self.measurement
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
            total = 0.0
            for label, entry in table.entries.items():
                total += entry.probability
                branch_table[label] = {
                    "probability": _q(entry.probability),
                    "substate": [_q_pair(z) for z in entry.amplitudes],
                }
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
                "matrix": _q_matrix(rep.matrix),
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


def emit_report(report: RunReport) -> str:
    """Deterministic serialization: sorted keys, 12 significant digits."""
    return json.dumps(report.to_document(), indent=2, sort_keys=True)


def parse_report(text: str) -> RunReport:
    """Inverse of emit_report; parse(emit(r)) == r."""
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise ParseError("report document must be a JSON object")
    for field in ("scenario_name", "final_norm", "branch_table", "marginals",
                  "probabilities", "checks"):
        if field not in doc:
            raise ParseError(f"missing required field {field!r}")
    return RunReport(
        scenario_name=doc["scenario_name"],
        final_norm=doc["final_norm"],
        branch_table=doc["branch_table"],
        marginals=doc["marginals"],
        probabilities=doc["probabilities"],
        checks=doc["checks"],
        measurement=doc.get("measurement"),
    )
