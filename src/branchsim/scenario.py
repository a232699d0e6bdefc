"""Declarative scenario schema: parse, validate, serialize, built-ins.

Scenario documents are JSON.  Angles may be written as decimal radians
or as exact strings like "pi/3" or "5*pi/4" (optionally negated), which
avoids transcription error for the rational-of-pi angles used by the
built-in scenarios; a gate keeps its angle as written, so it reads back
equal.  Complex values are numbers or [re, im] pairs; a bool is no number.

A document's round gates go straight into the scenario's one read-only
``(rounds, 8, 2, 2)`` gate array (see ``machine.IterationSpec``): a raw
gate as its eight numbers, each taken with one exact type test, and a
named gate as its library matrix.  All the raw round gates are then
checked in one pass (``gates.check_unitary``), and emission writes them
back from that array, a named gate as written.  Errors keep document
order across kinds: an error raised while parsing first checks the raw
gates before it, so an earlier gate's unitarity error (exit 3) wins over
a later gate's parse error (exit 2), and an earlier parse error wins over
a later unitarity error.  A raw ``system_init`` is the one gate checked
on its own, as a ``GateSpec`` (a stack of one, under the same rule),
before the amplitudes are read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchsimError, ParseError, ValidationError
from .gates import ANGLE_KINDS, GateSpec, IDENTITY, KINDS, check_unitary, radians
from .machine import SLOTS, InitSpec, IterationSpec, build_layout, check_steering

ANALYSIS_KINDS = ("branches", "marginal", "outcome", "separability", "witness")

# The document's field tables, read by both parse_scenario and emit_scenario.
_AMPLITUDES = ("alpha", "beta", "gamma", "delta")
_GATES = SLOTS
_REQUIRED_GATES = _GATES[:2]
_OMITTED = IterationSpec().written  # each slot's value where a document omits it

_SEED_MESSAGE = "must be an object with a non-negative integer 'seed'"


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
class Scenario:
    name: str
    init: InitSpec
    iterations: tuple[IterationSpec, ...]
    analyses: tuple[AnalysisRequest, ...] = ()
    measure_seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "iterations", tuple(self.iterations))
        object.__setattr__(self, "analyses", tuple(self.analyses))
        known = build_layout(len(self.iterations)).register_names()
        for i, request in enumerate(self.analyses):
            for reg in request.registers:
                if reg not in known:
                    raise ValidationError(
                        f"analyses[{i}]: analysis {request.kind!r} references "
                        f"unknown register {reg!r}"
                    )
            if request.kind == "witness" and request.registers[0] == request.registers[1]:
                raise ValidationError(f"analyses[{i}]: witness needs two distinct registers")


def _object(obj, path: str | None, required: tuple, optional: tuple,
            what: str = "must be an object") -> dict:
    """``obj``, checked to be a dict with every required and no other field."""
    if not isinstance(obj, dict):
        raise ParseError(what, path)
    for field in required:
        if field not in obj:
            raise ParseError(f"missing required field {field!r}", path)
    if len(obj) > len(required):  # every required field is in, so an extra one adds length
        extras = set(obj).difference(required, optional)
        if extras:
            raise ParseError(f"unexpected fields {sorted(extras)}", path)
    return obj


def _number(value, what: str, path: str, field: str = "") -> float:
    """A JSON int or float (by exact type, so never a bool) as a float."""
    if type(value) not in (int, float):
        raise ParseError(what, path + field)  # the path is joined only to raise
    try:
        return float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise ParseError("number is outside the floating-point range", path + field) from exc


def parse_angle(value, path: str) -> float | str:
    """A gate angle as written: radians, or an exact 'M*pi/N' style string."""
    if not isinstance(value, str):
        return _number(value, "angle must be a number or a pi expression", path)
    try:
        radians(value)
    except ValidationError as exc:
        raise ParseError(str(exc), path) from exc
    return value


def _complex_parts(value, path: str, field: str = "") -> tuple[float, float]:
    """A number or [re, im] pair as its two floats."""
    re, im = value if type(value) is list and len(value) == 2 else (value, 0.0)
    if type(re) is float and type(im) is float:  # already floats: _number's result
        return re, im
    what = "expected a number or [re, im] pair"
    return _number(re, what, path, field), _number(im, what, path, field)


def _parse_complex(value, path: str, field: str = "") -> complex:
    return complex(*_complex_parts(value, path, field))


def _build(cls, path: str, **fields):
    """``cls(**fields)``, a ``ValidationError`` it raises prefixed with ``path``."""
    try:
        return cls(**fields)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


_RAW_FIELDS = (".raw[0][0]", ".raw[0][1]", ".raw[1][0]", ".raw[1][1]")


def _parse_gate(obj, path: str) -> GateSpec | list[float]:
    """A named gate as its ``GateSpec``; a raw gate as its eight floats, the
    real and imaginary parts of its entries in row order, not yet checked."""
    if not isinstance(obj, dict):
        raise ParseError("gate must be an object", path)
    if "named" in obj and "raw" in obj:
        raise ParseError("gate cannot be both named and raw", path)
    if "raw" in obj:
        rows = _object(obj, path, ("raw",), ())["raw"]
        if not (type(rows) is list and len(rows) == 2 and type(rows[0]) is list
                and type(rows[1]) is list and len(rows[0]) == len(rows[1]) == 2):
            raise ParseError("raw gate must be a 2x2 matrix of [re, im] pairs", path)
        numbers = []
        for field, z in zip(_RAW_FIELDS, (*rows[0], *rows[1])):
            numbers += _complex_parts(z, path, field)
        return numbers
    elif "named" in obj:
        kind = obj["named"]
        if kind not in KINDS or kind == "raw":
            raise ParseError(f"unknown gate kind {kind!r}", path)
        _object(obj, path, ("named",), ("angle",))
        if (kind in ANGLE_KINDS) != ("angle" in obj):
            need = "requires an" if kind in ANGLE_KINDS else "takes no"
            raise ParseError(f"gate {kind!r} {need} angle", path)
        fields = {"kind": kind}
        if "angle" in obj:
            fields["angle"] = parse_angle(obj["angle"], f"{path}.angle")
    else:
        raise ParseError("gate needs a 'named' or 'raw' field", path)
    return _build(GateSpec, path, **fields)


def _raw_gates(numbers: list[float], raw_at: list[int]) -> np.ndarray:
    """The raw round gates' ``(k, 2, 2)`` matrices, checked in one pass; the
    first that fails raises with its path, found from its flat slot index."""
    raw = np.array(numbers, dtype=np.float64).view(np.complex128).reshape(-1, 2, 2)
    n = len(_GATES)
    check_unitary(raw, lambda i: f"iterations[{raw_at[i] // n}].{_GATES[raw_at[i] % n]}")
    return raw


def _parse_rounds(items: list) -> tuple[IterationSpec, ...]:
    """Every round of ``iterations``, on one ``(rounds, 8, 2, 2)`` gate array.

    Each raw gate's numbers are parsed in document order, and then all of
    them are checked in one pass.  An error raised on the way, a later
    gate's or round's, first checks the raw gates parsed before it, so the
    document's first error is the one raised, whatever its kind.
    """
    written, extended, numbers, raw_at = [], [], [], []
    try:
        for i, it in enumerate(items):
            path = f"iterations[{i}]"
            _object(it, path, _REQUIRED_GATES, _GATES, "iteration must be an object")
            slots = list(_OMITTED)
            for j, g in enumerate(_GATES):
                if g in it:
                    gate = _parse_gate(it[g], f"{path}.{g}")
                    if type(gate) is list:
                        numbers += gate
                        raw_at.append(len(_GATES) * i + j)
                        gate = None
                    slots[j] = gate
            _build(check_steering, path, r0=it.get("r0"), r1=it.get("r1"))
            written.append(tuple(slots))
            extended.append("r0" in it)
    except BranchsimError:
        _raw_gates(numbers, raw_at)  # a raw gate before the error fails first
        raise
    gates = np.empty((len(items), len(_GATES), 2, 2), dtype=np.complex128)
    gates[...] = IDENTITY.matrix()
    flat = gates.reshape(-1, 2, 2)
    for i, slots in enumerate(written):
        for j, gate in enumerate(slots):
            if gate is not None and not gate.is_identity:
                flat[len(_GATES) * i + j] = gate.matrix()
    flat[raw_at] = _raw_gates(numbers, raw_at)
    gates.flags.writeable = False
    return tuple(IterationSpec.of_gates(g, x, w) for g, x, w in zip(gates, extended, written))


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


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError("must be a list", path)
    return value


def load_json(text: str):
    """``json.loads`` with every decoding failure raised as ``ParseError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}") from exc
    except (ValueError, RecursionError) as exc:  # oversized int, deep nesting
        raise ParseError(f"invalid JSON: {exc}") from exc


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document: its round count, then every gate."""
    doc = _object(load_json(text), None, ("name", "init", "iterations"),
                  ("analyses", "measure"), "scenario document must be a JSON object")
    if not isinstance(doc["name"], str) or not doc["name"]:
        raise ParseError("must be a non-empty string", "name")
    # the round count alone sets the state's size: check it before any gate
    items = _list(doc["iterations"], "iterations")
    build_layout(len(items))

    init_doc = _object(doc["init"], "init", _AMPLITUDES + ("mode",), ("system_init",))
    if not isinstance(init_doc["mode"], str):
        raise ParseError("must be a string", "init.mode")
    system_init = IDENTITY
    if "system_init" in init_doc:
        system_init = _parse_gate(init_doc["system_init"], "init.system_init")
        if type(system_init) is list:  # one raw gate, checked as it is built
            a, b, c, d = map(complex, system_init[::2], system_init[1::2])
            system_init = _build(GateSpec, "init.system_init", kind="raw", raw=((a, b), (c, d)))
    init = _build(
        InitSpec, "init",
        **{a: _parse_complex(init_doc[a], "init.", a) for a in _AMPLITUDES},
        mode=init_doc["mode"],
        system_init=system_init,
    )

    iterations = _parse_rounds(items)

    analyses = [
        _parse_analysis(a, f"analyses[{i}]")
        for i, a in enumerate(_list(doc.get("analyses", []), "analyses"))
    ]

    seed = doc.get("measure")  # null means absent
    if seed is not None:
        seed = _object(seed, "measure", (), ("seed",), _SEED_MESSAGE).get("seed")
        if not (isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0):
            raise ParseError(_SEED_MESSAGE, "measure")

    return Scenario(
        name=doc["name"],
        init=init,
        iterations=iterations,
        analyses=tuple(analyses),
        measure_seed=seed,
    )


def _emit_complex(z: complex):
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _emit_raw(rows) -> dict:
    return {"raw": [[[z.real, z.imag] for z in row] for row in rows]}


def _emit_gate(g: GateSpec):
    if g.kind == "raw":
        return _emit_raw(g.raw)
    out: dict = {"named": g.kind}
    if g.angle is not None:
        out["angle"] = g.angle
    return out


def _emit_analysis(a: AnalysisRequest):
    if a.kind == "branches":
        return "branches"
    if a.kind == "witness":
        return {"witness": list(a.registers)}
    return {a.kind: a.registers[0]}


def emit_scenario(scenario: Scenario) -> str:
    """Serialize a scenario; parse(emit(s)) == s."""
    init = scenario.init
    init_doc = {a: _emit_complex(getattr(init, a)) for a in _AMPLITUDES}
    init_doc["mode"] = init.mode
    if not init.system_init.is_identity:
        init_doc["system_init"] = _emit_gate(init.system_init)
    # a raw gate from its row; an optional slot at its omitted value is left out
    iterations = [{g: _emit_raw(it.gates[j].tolist()) if w is None else _emit_gate(w)
                   for j, (g, w) in enumerate(zip(_GATES, it.written))
                   if g in _REQUIRED_GATES or w != _OMITTED[j] or (w is None and it.extended)}
                  for it in scenario.iterations]
    doc: dict = {
        "name": scenario.name,
        "init": init_doc,
        "iterations": iterations,
        "analyses": [_emit_analysis(a) for a in scenario.analyses],
    }
    if scenario.measure_seed is not None:
        doc["measure"] = {"seed": scenario.measure_seed}
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


def builtin_scenarios() -> list[Scenario]:
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
        feedback = (dict(f0=GateSpec("rx", angle="pi/12"),
                         f1=GateSpec("rx", angle="-pi/12"))
                    if with_feedback else {})
        return tuple(
            IterationSpec(u0=GateSpec("rx", angle="pi/3"),
                          u1=GateSpec("rx", angle="-pi/3"), **feedback)
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

    reinforce = Scenario(
        name="reinforce-two-step",
        init=InitSpec(mode="uncorrelated", **balanced),
        iterations=(
            IterationSpec(
                v0=IDENTITY, v1=GateSpec("pauli_x"),
                r0=IDENTITY,
                r1=GateSpec("real_rotation", angle="pi/4"),
            ),
            IterationSpec(),
        ),
        analyses=(AnalysisRequest("branches"),),
    )
    return [pauli, rot_a, rot_b, reinforce]


def builtin_scenario(name: str) -> Scenario:
    """Look up one built-in scenario by name."""
    for scenario in builtin_scenarios():
        if scenario.name == name:
            return scenario
    known = ", ".join(sorted(BUILTIN_DESCRIPTIONS))
    raise ValidationError(f"unknown example {name!r}; known examples: {known}")
