"""Declarative scenario schema: parse, validate, serialize, built-ins.

Scenario documents are JSON.  Angles may be written as decimal radians
or as exact strings like "pi/3" or "5*pi/4" (optionally negated), which
avoids transcription error for the rational-of-pi angles used by the
built-in scenarios.  Complex values are written as [re, im] pairs.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

from .errors import ParseError, ValidationError
from .gates import ANGLE_KINDS, GateSpec, IDENTITY, KINDS
from .machine import MAX_ITERATIONS, InitSpec, IterationSpec, RegisterLayout

ANALYSIS_KINDS = ("branches", "marginal", "outcome", "separability", "witness")

_ANGLE_RE = re.compile(r"^(-?)(?:(\d+)\*)?pi(?:/([1-9]\d*))?$")


@dataclass(frozen=True)
class AnalysisRequest:
    kind: str
    registers: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ANALYSIS_KINDS:
            raise ValidationError(f"unknown analysis kind {self.kind!r}")
        wanted = {"branches": 0, "witness": 2}.get(self.kind, 1)
        if len(self.registers) != wanted:
            raise ValidationError(
                f"analysis {self.kind!r} takes {wanted} register(s), "
                f"got {len(self.registers)}"
            )


@dataclass(frozen=True)
class MeasureRequest:
    seed: int


@dataclass(frozen=True)
class Scenario:
    name: str
    init: InitSpec
    iterations: tuple[IterationSpec, ...]
    analyses: tuple[AnalysisRequest, ...] = ()
    measure: MeasureRequest | None = None

    def __post_init__(self):
        object.__setattr__(self, "iterations", tuple(self.iterations))
        object.__setattr__(self, "analyses", tuple(self.analyses))
        if len(self.iterations) > MAX_ITERATIONS:
            raise ValidationError(
                f"{len(self.iterations)} iterations exceeds the cap of "
                f"{MAX_ITERATIONS}"
            )
        known = RegisterLayout(len(self.iterations)).register_names()
        for request in self.analyses:
            for reg in request.registers:
                if reg not in known:
                    raise ValidationError(
                        f"analysis {request.kind!r} references unknown "
                        f"register {reg!r}"
                    )
            if request.kind == "witness" and request.registers[0] == request.registers[1]:
                raise ValidationError("witness needs two distinct registers")


def _to_float(value: int | float, path: str) -> float:
    """``float(value)``, with an integer beyond the float range a ParseError."""
    try:
        return float(value)
    except OverflowError as exc:
        raise ParseError("number is outside the floating-point range", path) from exc


def parse_angle(value, path: str) -> tuple[float, str | None]:
    """Radians from a number or an exact 'M*pi/N' style string."""
    if isinstance(value, bool):
        raise ParseError("angle must be a number or a pi expression", path)
    if isinstance(value, (int, float)):
        return _to_float(value, path), None
    if isinstance(value, str):
        m = _ANGLE_RE.match(value.replace(" ", ""))
        if not m:
            raise ParseError(f"bad angle expression {value!r}", path)
        sign = -1.0 if m.group(1) else 1.0
        mult = float(m.group(2)) if m.group(2) else 1.0
        div = float(m.group(3)) if m.group(3) else 1.0
        return sign * mult * math.pi / div, value
    raise ParseError("angle must be a number or a pi expression", path)


def _parse_complex(value, path: str) -> complex:
    if isinstance(value, bool):
        raise ParseError("expected a number or [re, im] pair", path)
    if isinstance(value, (int, float)):
        return complex(_to_float(value, path), 0.0)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        return complex(_to_float(value[0], path), _to_float(value[1], path))
    raise ParseError("expected a number or [re, im] pair", path)


def _parse_gate(obj, path: str) -> GateSpec:
    if not isinstance(obj, dict):
        raise ParseError("gate must be an object", path)
    if "named" in obj and "raw" in obj:
        raise ParseError("gate cannot be both named and raw", path)
    if "named" in obj:
        kind = obj["named"]
        if kind not in KINDS or kind == "raw":
            raise ParseError(f"unknown gate kind {kind!r}", path)
        extras = set(obj) - {"named", "angle"}
        if extras:
            raise ParseError(f"unexpected gate fields {sorted(extras)}", path)
        if kind in ANGLE_KINDS:
            if "angle" not in obj:
                raise ParseError(f"gate {kind!r} requires an angle", path)
            angle, expr = parse_angle(obj["angle"], f"{path}.angle")
            return GateSpec(kind, angle=angle, angle_expr=expr)
        if "angle" in obj:
            raise ParseError(f"gate {kind!r} takes no angle", path)
        return GateSpec(kind)
    if "raw" in obj:
        rows = obj["raw"]
        if not (isinstance(rows, list) and len(rows) == 2
                and all(isinstance(r, list) and len(r) == 2 for r in rows)):
            raise ParseError("raw gate must be a 2x2 matrix of [re, im] pairs", path)
        entries = tuple(
            tuple(_parse_complex(rows[i][j], f"{path}.raw[{i}][{j}]") for j in range(2))
            for i in range(2)
        )
        spec = GateSpec("raw", raw=entries)
        try:
            spec.matrix()
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
        return spec
    raise ParseError("gate needs a 'named' or 'raw' field", path)


def _parse_analysis(obj, path: str) -> AnalysisRequest:
    if obj == "branches":
        return AnalysisRequest("branches")
    if isinstance(obj, dict) and len(obj) == 1:
        kind, arg = next(iter(obj.items()))
        if kind == "witness":
            if not (isinstance(arg, list) and len(arg) == 2
                    and all(isinstance(r, str) for r in arg)):
                raise ParseError("witness takes a pair of register ids", path)
            return AnalysisRequest("witness", tuple(arg))
        if kind in ("marginal", "outcome", "separability"):
            if not isinstance(arg, str):
                raise ParseError(f"{kind} takes a register id", path)
            return AnalysisRequest(kind, (arg,))
    raise ParseError(f"unknown analysis request {obj!r}", path)


def load_json(text: str):
    """``json.loads`` with every decoding failure raised as ``ParseError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}") from exc
    except (ValueError, RecursionError) as exc:  # oversized int, deep nesting
        raise ParseError(f"invalid JSON: {exc}") from exc


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document; gates are resolved eagerly."""
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    for field in ("name", "init", "iterations"):
        if field not in doc:
            raise ParseError(f"missing required field {field!r}")
    extras = set(doc) - {"name", "init", "iterations", "analyses", "measure"}
    if extras:
        raise ParseError(f"unexpected fields {sorted(extras)}")
    if not isinstance(doc["name"], str) or not doc["name"]:
        raise ParseError("must be a non-empty string", "name")

    init_doc = doc["init"]
    if not isinstance(init_doc, dict):
        raise ParseError("must be an object", "init")
    for field in ("alpha", "beta", "gamma", "delta", "mode"):
        if field not in init_doc:
            raise ParseError(f"missing required field {field!r}", "init")
    extras = set(init_doc) - {"alpha", "beta", "gamma", "delta", "mode", "system_init"}
    if extras:
        raise ParseError(f"unexpected fields {sorted(extras)}", "init")
    if not isinstance(init_doc["mode"], str):
        raise ParseError("must be a string", "init.mode")
    system_init = IDENTITY
    if "system_init" in init_doc:
        system_init = _parse_gate(init_doc["system_init"], "init.system_init")
    init = InitSpec(
        alpha=_parse_complex(init_doc["alpha"], "init.alpha"),
        beta=_parse_complex(init_doc["beta"], "init.beta"),
        gamma=_parse_complex(init_doc["gamma"], "init.gamma"),
        delta=_parse_complex(init_doc["delta"], "init.delta"),
        mode=init_doc["mode"],
        system_init=system_init,
    )

    if not isinstance(doc["iterations"], list):
        raise ParseError("must be a list", "iterations")
    iterations = []
    for i, it in enumerate(doc["iterations"]):
        path = f"iterations[{i}]"
        if not isinstance(it, dict):
            raise ParseError("iteration must be an object", path)
        extras = set(it) - {"u0", "u1", "f0", "f1", "v0", "v1", "r0", "r1"}
        if extras:
            raise ParseError(f"unexpected fields {sorted(extras)}", path)
        for field in ("u0", "u1"):
            if field not in it:
                raise ParseError(f"missing required field {field!r}", path)

        def gate(field: str, default: GateSpec | None = IDENTITY) -> GateSpec | None:
            if field not in it:
                return default
            return _parse_gate(it[field], f"{path}.{field}")

        iterations.append(
            IterationSpec(
                u0=gate("u0"), u1=gate("u1"),
                f0=gate("f0"), f1=gate("f1"),
                v0=gate("v0"), v1=gate("v1"),
                r0=gate("r0", None), r1=gate("r1", None),
            )
        )

    analyses = []
    if "analyses" in doc:
        if not isinstance(doc["analyses"], list):
            raise ParseError("must be a list", "analyses")
        analyses = [
            _parse_analysis(a, f"analyses[{i}]") for i, a in enumerate(doc["analyses"])
        ]

    measure = None
    if "measure" in doc and doc["measure"] is not None:
        m = doc["measure"]
        if not (isinstance(m, dict) and isinstance(m.get("seed"), int)
                and not isinstance(m.get("seed"), bool) and m["seed"] >= 0):
            raise ParseError("must be an object with a non-negative integer 'seed'",
                             "measure")
        measure = MeasureRequest(seed=m["seed"])

    return Scenario(
        name=doc["name"],
        init=init,
        iterations=tuple(iterations),
        analyses=tuple(analyses),
        measure=measure,
    )


def _emit_complex(z: complex):
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _emit_gate(g: GateSpec):
    if g.kind == "raw":
        return {"raw": [[_pair(g.raw[i][j]) for j in range(2)] for i in range(2)]}
    out: dict = {"named": g.kind}
    if g.kind in ANGLE_KINDS:
        out["angle"] = g.angle_expr if g.angle_expr is not None else g.angle
    return out


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _emit_analysis(a: AnalysisRequest):
    if a.kind == "branches":
        return "branches"
    if a.kind == "witness":
        return {"witness": list(a.registers)}
    return {a.kind: a.registers[0]}


def emit_scenario(scenario: Scenario) -> str:
    """Serialize a scenario; parse(emit(s)) == s."""
    init = scenario.init
    init_doc = {
        "alpha": _emit_complex(init.alpha),
        "beta": _emit_complex(init.beta),
        "gamma": _emit_complex(init.gamma),
        "delta": _emit_complex(init.delta),
        "mode": init.mode,
    }
    if not init.system_init.is_identity:
        init_doc["system_init"] = _emit_gate(init.system_init)
    iterations = []
    for it in scenario.iterations:
        it_doc = {"u0": _emit_gate(it.u0), "u1": _emit_gate(it.u1)}
        for field in ("f0", "f1", "v0", "v1"):
            g = getattr(it, field)
            if not g.is_identity:
                it_doc[field] = _emit_gate(g)
        if it.extended:
            it_doc["r0"] = _emit_gate(it.r0)
            it_doc["r1"] = _emit_gate(it.r1)
        iterations.append(it_doc)
    doc: dict = {
        "name": scenario.name,
        "init": init_doc,
        "iterations": iterations,
        "analyses": [_emit_analysis(a) for a in scenario.analyses],
    }
    if scenario.measure is not None:
        doc["measure"] = {"seed": scenario.measure.seed}
    return json.dumps(doc, indent=2)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)

BUILTIN_DESCRIPTIONS = {
    "pauli-flips": "three rounds of branch-conditioned Pauli flips; "
    "ends in a GHZ-like state across all six registers",
    "rotations-nofeedback": "opposed x-rotations by pi/3 per round, no feedback; "
    "the system lands exactly on |1>",
    "rotations-feedback": "opposed x-rotations with policy-controlled pi/12 pushes; "
    "Pr(S=1) drops to about 0.8536 and the system stays entangled",
    "reinforce-two-step": "policy-steered control rotation after round one; "
    "opens a third memory branch with probability |beta|^2 sin^2(theta)",
}


def builtin_scenarios(reinforce_theta: float = math.pi / 4) -> list[Scenario]:
    """The four scenarios reproduced by the golden test suite."""
    balanced = dict(alpha=_INV_SQRT2, beta=_INV_SQRT2, gamma=1.0, delta=0.0)
    pauli = Scenario(
        name="pauli-flips",
        init=InitSpec(mode="uncorrelated", **balanced),
        iterations=tuple(
            IterationSpec(
                u0=IDENTITY, u1=GateSpec("pauli_x"),
                f0=IDENTITY, f1=GateSpec("pauli_z"),
                v0=IDENTITY, v1=GateSpec("pauli_x"),
            )
            for _ in range(3)
        ),
        analyses=(
            AnalysisRequest("branches"),
            AnalysisRequest("marginal", ("M1",)),
            AnalysisRequest("marginal", ("M2",)),
            AnalysisRequest("marginal", ("M3",)),
            AnalysisRequest("witness", ("C", "M1")),
        ),
    )

    def rotation_iterations(with_feedback: bool) -> tuple[IterationSpec, ...]:
        f0 = GateSpec("rx", angle=math.pi / 12, angle_expr="pi/12") \
            if with_feedback else IDENTITY
        f1 = GateSpec("rx", angle=-math.pi / 12, angle_expr="-pi/12") \
            if with_feedback else IDENTITY
        return tuple(
            IterationSpec(
                u0=GateSpec("rx", angle=math.pi / 3, angle_expr="pi/3"),
                u1=GateSpec("rx", angle=-math.pi / 3, angle_expr="-pi/3"),
                f0=f0, f1=f1,
            )
            for _ in range(3)
        )

    rotation_analyses = (
        AnalysisRequest("branches"),
        AnalysisRequest("outcome", ("S",)),
        AnalysisRequest("separability", ("S",)),
        AnalysisRequest("marginal", ("M1",)),
    )
    rot_a = Scenario(
        name="rotations-nofeedback",
        init=InitSpec(mode="copy_c_to_p_from_zero", **balanced),
        iterations=rotation_iterations(with_feedback=False),
        analyses=rotation_analyses,
    )
    rot_b = Scenario(
        name="rotations-feedback",
        init=InitSpec(mode="copy_c_to_p_from_zero", **balanced),
        iterations=rotation_iterations(with_feedback=True),
        analyses=rotation_analyses,
    )

    theta_expr = "pi/4" if reinforce_theta == math.pi / 4 else None
    reinforce = Scenario(
        name="reinforce-two-step",
        init=InitSpec(mode="uncorrelated", **balanced),
        iterations=(
            IterationSpec(
                v0=IDENTITY, v1=GateSpec("pauli_x"),
                r0=IDENTITY,
                r1=GateSpec("real_rotation", angle=reinforce_theta,
                            angle_expr=theta_expr),
            ),
            IterationSpec(),
        ),
        analyses=(AnalysisRequest("branches"),),
    )
    return [pauli, rot_a, rot_b, reinforce]


def builtin_scenario(name: str, **kwargs) -> Scenario:
    """Look up one built-in scenario by name."""
    for scenario in builtin_scenarios(**kwargs):
        if scenario.name == name:
            return scenario
    known = ", ".join(sorted(BUILTIN_DESCRIPTIONS))
    raise ValidationError(f"unknown example {name!r}; known examples: {known}")
