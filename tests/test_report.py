import pytest

from branchsim import (
    ParseError,
    build_report,
    builtin_scenario,
    emit_report,
    parse_report,
    run,
)
from branchsim.report import _q


def test_quantizer_twelve_significant_digits():
    assert _q(0.8535533905932737) == 0.853553390593
    assert _q(1.0000000000000002) == 1.0
    assert _q(-0.3826834323650897) == -0.382683432365


def test_quantizer_floors_dust_to_zero():
    assert _q(3e-13) == 0.0
    assert _q(-3e-13) == 0.0
    assert _q(1e-11) == 1e-11


def test_report_round_trip_identity():
    for name in ("pauli-flips", "rotations-feedback", "reinforce-two-step"):
        scenario = builtin_scenario(name)
        report = build_report(scenario, run(scenario))
        assert parse_report(emit_report(report)) == report


def test_report_is_byte_identical_across_runs():
    scenario = builtin_scenario("rotations-feedback")
    first = emit_report(build_report(scenario, run(scenario)))
    second = emit_report(build_report(scenario, run(scenario)))
    assert first == second


def test_report_ghz_branch_table():
    scenario = builtin_scenario("pauli-flips")
    report = build_report(scenario, run(scenario))
    assert set(report.branch_table) == {"000", "111"}
    assert report.branch_table["000"]["probability"] == 0.5
    assert report.branch_table["111"]["probability"] == 0.5
    assert report.final_norm == 1.0
    assert report.checks["norm"]["pass"] is True
    assert report.checks["branch_probability_sum"]["pass"] is True
    assert report.checks["witness_C_M1"]["entangled"] is True


def test_report_feedback_probability_field():
    scenario = builtin_scenario("rotations-feedback")
    report = build_report(scenario, run(scenario))
    assert report.probabilities["S_1"] == pytest.approx(0.853553390593, abs=1e-9)
    assert report.probabilities["S_0"] == pytest.approx(0.146446609407, abs=1e-9)
    assert report.checks["separability_S"]["separable"] is False
    assert report.checks["separability_S"]["purity"] == 0.75


def test_report_marginals_section():
    scenario = builtin_scenario("pauli-flips")
    report = build_report(scenario, run(scenario))
    registers = [m["register"] for m in report.marginals]
    assert registers == ["M1", "M2", "M3"]
    for marginal in report.marginals:
        assert marginal["diagonal_probs"] == [0.5, 0.5]
        assert marginal["max_offdiag"] == 0.0


def test_report_measurement_seed_determinism():
    from dataclasses import replace
    from branchsim.scenario import MeasureRequest

    scenario = replace(builtin_scenario("pauli-flips"), measure=MeasureRequest(seed=7))
    state = run(scenario)
    r1 = build_report(scenario, state)
    r2 = build_report(scenario, state)
    assert r1.measurement == r2.measurement
    assert r1.measurement["probability"] == 0.5
    assert r1.measurement["outcome"] in (0, 1)
    r3 = build_report(scenario, state, seed_override=8)
    assert r3.measurement["probability"] == 0.5


@pytest.mark.parametrize("text", ["[" * 100_000, "1" + "0" * 5_000],
                         ids=["deep-nesting", "oversized-integer"])
def test_parse_report_maps_every_json_failure_to_parse_error(text):
    with pytest.raises(ParseError):
        parse_report(text)
