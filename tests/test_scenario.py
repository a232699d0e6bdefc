import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from branchsim import builtin_scenario, cli, run
from branchsim import scenario as scenario_module
from branchsim.analysis import outcome_probability
from branchsim.errors import CapacityError, ParseError, ValidationError
from branchsim.gates import GateSpec, radians
from branchsim.linalg import UNITARITY_TOL
from branchsim.machine import InitSpec, IterationSpec
from branchsim.scenario import (
    AnalysisRequest,
    Scenario,
    builtin_scenarios,
    emit_scenario,
    parse_angle,
    parse_scenario,
)
from branchsim.verify import random_extended_scenario, random_gates


def _document(**overrides):
    doc = {
        "name": "demo",
        "init": {"alpha": 0.6, "beta": 0.8, "gamma": 1.0, "delta": 0.0,
                 "mode": "uncorrelated"},
        "iterations": [
            {"u0": {"named": "identity"}, "u1": {"named": "pauli_x"}}
        ],
        "analyses": ["branches", {"outcome": "S"}],
    }
    doc.update(overrides)
    return doc


def test_parse_minimal_document():
    scenario = parse_scenario(json.dumps(_document()))
    assert scenario.name == "demo"
    assert not any(it.extended for it in scenario.iterations)
    assert len(scenario.iterations) == 1
    assert scenario.iterations[0].f0.is_identity  # omitted blocks default


def test_parse_builtin_emission_matches_builtin():
    for builtin in builtin_scenarios():
        assert parse_scenario(emit_scenario(builtin)) == builtin


def test_parse_pauli_flips_structure():
    scenario = parse_scenario(emit_scenario(builtin_scenario("pauli-flips")))
    assert len(scenario.iterations) == 3
    for it in scenario.iterations:
        assert (it.u0.kind, it.u1.kind) == ("identity", "pauli_x")
        assert (it.f0.kind, it.f1.kind) == ("identity", "pauli_z")
        assert (it.v0.kind, it.v1.kind) == ("identity", "pauli_x")


def test_parse_rejects_unnormalized_control():
    doc = _document()
    doc["init"]["alpha"] = 0.6
    doc["init"]["beta"] = 0.6
    with pytest.raises(ValidationError, match="alpha"):
        parse_scenario(json.dumps(doc))


def test_parse_rejects_non_unitary_raw_gate():
    doc = _document()
    doc["iterations"][0]["u1"] = {"raw": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]}
    with pytest.raises(ValidationError) as err:
        parse_scenario(json.dumps(doc))
    assert "iterations[0].u1" in str(err.value)
    assert "deviation" in str(err.value)


def test_raw_gate_unitarity_is_checked_at_the_tolerance_boundary():
    # diag(1, 1 + eps) deviates from unitarity by 2 eps + eps^2
    def parse_with(eps):
        doc = _document()
        doc["iterations"][0]["u1"] = {"raw": [[[1, 0], [0, 0]], [[0, 0], [1 + eps, 0]]]}
        return parse_scenario(json.dumps(doc))

    assert UNITARITY_TOL == 1e-9
    parse_with(4.9e-10)  # deviation 9.8e-10: accepted
    with pytest.raises(ValidationError, match=r"^iterations\[0\]\.u1: raw gate is not unitary"):
        parse_with(5.1e-10)  # deviation 1.02e-9: rejected
    with pytest.raises(ValidationError, match="^raw gate is not unitary"):
        GateSpec("raw", raw=((1, 0), (0, 1 + 5.1e-10)))


def test_parse_error_carries_field_path():
    doc = _document()
    del doc["init"]["mode"]
    with pytest.raises(ParseError, match="init"):
        parse_scenario(json.dumps(doc))
    with pytest.raises(ParseError, match="line"):
        parse_scenario("{not json")


def test_parse_rejects_unknown_fields():
    with pytest.raises(ParseError, match="unexpected"):
        parse_scenario(json.dumps(_document(extra=1)))
    with pytest.raises(ParseError, match=r"^measure: unexpected fields \['sed'\]$"):
        parse_scenario(json.dumps(_document(measure={"seed": 3, "sed": 4})))
    assert parse_scenario(json.dumps(_document(measure=None))).measure_seed is None


def test_parse_rejects_negative_measure_seed():
    with pytest.raises(ParseError) as err:
        parse_scenario(json.dumps(_document(measure={"seed": -1})))
    assert err.value.path == "measure"
    assert parse_scenario(json.dumps(_document(measure={"seed": 0}))).measure_seed == 0


def test_parse_rejects_half_r_pair():
    doc = _document()
    doc["iterations"][0]["r0"] = {"named": "identity"}
    with pytest.raises(ValidationError, match="r0 and r1"):
        parse_scenario(json.dumps(doc))


def test_parse_rejects_too_many_iterations():
    doc = _document()
    doc["iterations"] = doc["iterations"] * 18
    with pytest.raises(CapacityError, match="cap"):
        parse_scenario(json.dumps(doc))


def _too_many_rounds() -> str:
    """18 rounds, 21 qubits, with a system_init and a malformed gate."""
    doc = _document()
    doc["init"]["system_init"] = {"named": "hadamard"}
    doc["iterations"] = doc["iterations"] * 18
    doc["iterations"][17] = {"u0": {"named": "bogus"}, "u1": {"named": "identity"}}
    return json.dumps(doc)


def test_round_count_is_checked_before_any_gate_is_parsed(monkeypatch):
    def refuse(obj, path):
        raise AssertionError(f"{path} was parsed")

    monkeypatch.setattr(scenario_module, "_parse_gate", refuse)
    with pytest.raises(CapacityError, match="^18 iterations needs 21 qubits; cap is 20$"):
        parse_scenario(_too_many_rounds())


def test_too_many_rounds_exit_3_before_a_malformed_gate(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(_too_many_rounds(), encoding="utf-8")
    assert cli.main(["run", "--scenario", str(path)]) == cli.EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["validation error: 18 iterations needs 21 qubits; cap is 20"]


def test_parse_complex_amplitude_pairs():
    doc = _document()
    doc["init"]["alpha"] = [0.0, 0.6]
    doc["init"]["beta"] = 0.8
    scenario = parse_scenario(json.dumps(doc))
    assert scenario.init.alpha == 0.6j
    assert scenario.init.beta == 0.8 + 0j


@pytest.mark.parametrize(
    "expr,expected",
    [
        ("pi", math.pi),
        ("pi/3", math.pi / 3),
        ("-pi/12", -math.pi / 12),
        ("5*pi/4", 5 * math.pi / 4),
        ("2*pi", 2 * math.pi),
        (0.25, 0.25),
        (-1.5, -1.5),
    ],
)
def test_parse_angle_expressions(expr, expected):
    assert radians(expr) == pytest.approx(expected, abs=0)
    assert parse_angle(expr, "angle") == expr  # kept as written


@pytest.mark.parametrize("expr", ["pi/0", "tau", "pi*3", "3pi", "", "pi/3/2"])
def test_parse_angle_rejects_malformed(expr):
    with pytest.raises(ParseError, match=r"^angle: bad angle expression"):
        parse_angle(expr, "angle")
    with pytest.raises(ValidationError, match=r"^bad angle expression"):
        radians(expr)


def test_mode_extended_iff_r_pair_present():
    assert any(it.extended for it in builtin_scenario("reinforce-two-step").iterations)
    assert not any(it.extended for it in builtin_scenario("pauli-flips").iterations)


def test_builtin_list_is_exactly_four():
    names = [s.name for s in builtin_scenarios()]
    assert names == [
        "pauli-flips",
        "rotations-nofeedback",
        "rotations-feedback",
        "reinforce-two-step",
    ]


def test_builtin_unknown_name():
    with pytest.raises(ValidationError, match="unknown example"):
        builtin_scenario("nope")


def test_builtins_run_quickly_and_cleanly():
    for scenario in builtin_scenarios():
        start = time.perf_counter()
        state = run(scenario)
        assert time.perf_counter() - start < 1.0
        assert state.norm() == pytest.approx(1.0, abs=1e-10)


def test_rotations_feedback_probability():
    state = run(builtin_scenario("rotations-feedback"))
    assert outcome_probability(state, "S", 1) == pytest.approx(
        (2 + math.sqrt(2)) / 4, abs=1e-9
    )


def test_scenario_round_trip_with_raw_gate_and_measure():
    rng = np.random.default_rng(31)
    raw_everywhere = replace(
        random_extended_scenario(rng, 2),
        analyses=(
            AnalysisRequest("branches"),
            AnalysisRequest("marginal", ("M2",)),
            AnalysisRequest("outcome", ("P",)),
            AnalysisRequest("separability", ("S",)),
            AnalysisRequest("witness", ("C", "M1")),
        ),
        measure_seed=5,
    )
    assert raw_everywhere.init.system_init.kind == "raw"
    assert all(getattr(it, slot).kind == "raw" for it in raw_everywhere.iterations
               for slot in ("u0", "u1", "f0", "f1", "v0", "v1", "r0", "r1"))
    assert parse_scenario(emit_scenario(raw_everywhere)) == raw_everywhere
    # explicit identity feedback and update gates are left out and read back
    explicit = Scenario(
        name="explicit-identity",
        init=InitSpec(alpha=1.0, beta=0.0),
        iterations=(IterationSpec(u1=GateSpec("pauli_x"), f0=GateSpec("identity"),
                                  v1=GateSpec("identity")),),
    )
    emitted = emit_scenario(explicit)
    assert set(json.loads(emitted)["iterations"][0]) == {"u0", "u1"}
    assert parse_scenario(emitted) == explicit
    # rotation gates built in Python keep their angle, float or string, as written
    rotations = Scenario(
        name="rotations",
        init=InitSpec(alpha=0.6, beta=0.8, system_init=GateSpec("ry", angle="pi / 5")),
        iterations=(
            IterationSpec(u0=GateSpec("rx", angle=1.0), u1=GateSpec("rx", angle="pi/2"),
                          f0=GateSpec("rz", angle=-0.1), f1=GateSpec("rz", angle="-pi/7"),
                          v0=GateSpec("ry", angle=1e-300), v1=GateSpec("ry", angle="2*pi"),
                          r0=GateSpec("real_rotation", angle=math.pi / 4),
                          r1=GateSpec("real_rotation", angle="pi/4")),
        ),
    )
    assert parse_scenario(emit_scenario(rotations)) == rotations
    scenario = Scenario(
        name="round-trip",
        init=InitSpec(alpha=0.6, beta=0.8j, gamma=0.8, delta=0.6,
                      mode="correlated_c_to_p"),
        iterations=(
            IterationSpec(*random_gates(rng, 2)),
        ),
        analyses=(
            AnalysisRequest("branches"),
            AnalysisRequest("marginal", ("M1",)),
            AnalysisRequest("witness", ("C", "M1")),
        ),
        measure_seed=99,
    )
    assert parse_scenario(emit_scenario(scenario)) == scenario


def test_scenario_rejects_analysis_on_unknown_register():
    doc = _document()
    doc["analyses"] = [{"marginal": "M5"}]
    with pytest.raises(ValidationError, match="unknown register"):
        parse_scenario(json.dumps(doc))
    doc["analyses"] = [{"witness": ["S", "S"]}]
    with pytest.raises(ValidationError, match="distinct"):
        parse_scenario(json.dumps(doc))
