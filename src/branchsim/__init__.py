"""Deterministic state-vector engine for coherent branching machines.

A global pure state over control, memory, system, and policy registers
evolves under iterated controlled unitaries; memory slots coherently
record the branch taken each round, the policy register adapts to the
record and feeds back on the system, and analysis utilities decompose
the result into memory-labeled branches and reduced-state marginals.
"""

from .analysis import (
    BranchTable,
    MarginalReport,
    branch_decompose,
    fidelity,
    memory_marginal,
    no_cloning_witness,
    outcome_probability,
    register_marginal,
    separability_check,
)
from .errors import (
    BranchsimError,
    CapacityError,
    LayoutError,
    ModeError,
    ParseError,
    ProjectionError,
    ShapeError,
    ValidationError,
)
from .gates import GateSpec, IDENTITY, raw_gate, real_rotation, rx, ry, rz
from .linalg import Tolerances, check_unitary, purity
from .machine import (
    InitSpec,
    IterationSpec,
    RegisterLayout,
    StateVector,
    apply_controlled,
    build_layout,
    initialize,
    iterate,
    iterate_extended,
    measure_control,
    partial_trace,
    run,
    write_memory,
)
from .report import RunReport, build_report, emit_report, parse_report
from .scenario import (
    AnalysisRequest,
    MeasureRequest,
    Scenario,
    builtin_scenario,
    builtin_scenarios,
    emit_scenario,
    parse_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisRequest",
    "BranchTable",
    "BranchsimError",
    "CapacityError",
    "GateSpec",
    "IDENTITY",
    "InitSpec",
    "IterationSpec",
    "LayoutError",
    "MarginalReport",
    "MeasureRequest",
    "ModeError",
    "ParseError",
    "ProjectionError",
    "RegisterLayout",
    "RunReport",
    "Scenario",
    "ShapeError",
    "StateVector",
    "Tolerances",
    "ValidationError",
    "apply_controlled",
    "branch_decompose",
    "build_layout",
    "build_report",
    "builtin_scenario",
    "builtin_scenarios",
    "check_unitary",
    "emit_report",
    "emit_scenario",
    "fidelity",
    "initialize",
    "iterate",
    "iterate_extended",
    "measure_control",
    "memory_marginal",
    "no_cloning_witness",
    "outcome_probability",
    "parse_report",
    "parse_scenario",
    "partial_trace",
    "purity",
    "raw_gate",
    "real_rotation",
    "register_marginal",
    "run",
    "rx",
    "ry",
    "rz",
    "separability_check",
    "write_memory",
]
