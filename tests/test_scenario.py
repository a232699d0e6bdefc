import json
import math
import time

import numpy as np
import pytest

from branchsim import branch_decompose, builtin_scenario, run
from branchsim.analysis import outcome_probability
from branchsim.errors import ParseError, ValidationError
from branchsim.gates import raw_gate
from branchsim.machine import InitSpec, IterationSpec
from branchsim.scenario import (
    AnalysisRequest,
    MeasureRequest,
    Scenario,
    builtin_scenarios,
    emit_scenario,
    parse_angle,
    parse_scenario,
)
from branchsim.verify import random_unitary


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


def test_parse_rejects_negative_measure_seed():
    with pytest.raises(ParseError) as err:
        parse_scenario(json.dumps(_document(measure={"seed": -1})))
    assert err.value.path == "measure"
    assert parse_scenario(json.dumps(_document(measure={"seed": 0}))).measure.seed == 0


def test_parse_rejects_half_r_pair():
    doc = _document()
    doc["iterations"][0]["r0"] = {"named": "identity"}
    with pytest.raises(ValidationError, match="r0 and r1"):
        parse_scenario(json.dumps(doc))


def test_parse_rejects_too_many_iterations():
    doc = _document()
    doc["iterations"] = doc["iterations"] * 18
    with pytest.raises(ValidationError, match="cap"):
        parse_scenario(json.dumps(doc))


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
    value, _ = parse_angle(expr, "angle")
    assert value == pytest.approx(expected, abs=0)


@pytest.mark.parametrize("expr", ["pi/0", "tau", "pi*3", "3pi", "", "pi/3/2"])
def test_parse_angle_rejects_malformed(expr):
    with pytest.raises(ParseError):
        parse_angle(expr, "angle")


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


def test_builtin_reinforce_theta_parameter():
    scenario = builtin_scenario("reinforce-two-step", reinforce_theta=0.0)
    probs = branch_decompose(run(scenario)).probabilities()
    assert set(probs) == {"00", "11"}
    assert probs["00"] == pytest.approx(0.5, abs=1e-12)


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
    scenario = Scenario(
        name="round-trip",
        init=InitSpec(alpha=0.6, beta=0.8j, gamma=0.8, delta=0.6,
                      mode="correlated_c_to_p"),
        iterations=(
            IterationSpec(u0=raw_gate(random_unitary(rng)),
                          u1=raw_gate(random_unitary(rng))),
        ),
        analyses=(
            AnalysisRequest("branches"),
            AnalysisRequest("marginal", ("M1",)),
            AnalysisRequest("witness", ("C", "M1")),
        ),
        measure=MeasureRequest(seed=99),
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
