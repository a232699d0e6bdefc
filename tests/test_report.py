import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from branchsim import analysis, builtin_scenario, run
from branchsim.errors import ParseError, ValidationError
from branchsim.report import (
    RunReport,
    _q,
    _q_array,
    build_report,
    emit_report,
    parse_report,
)
from branchsim.scenario import AnalysisRequest
from branchsim.verify import random_extended_scenario


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


def test_report_marginals_of_every_register_kind_are_quantized_rho():
    registers = ("C", "S", "P", "M1")
    scenario = replace(random_extended_scenario(np.random.default_rng(13), 2),
                       analyses=tuple(AnalysisRequest("marginal", (r,)) for r in registers))
    state = run(scenario)
    report = build_report(scenario, state)
    assert tuple(m["register"] for m in report.marginals) == registers
    for entry in report.marginals:
        rho = analysis.register_marginal(state, {entry["register"]})
        assert _bits(np.ravel(entry["matrix"])) == _bits(
            [_q(part) for z in rho.ravel() for part in (z.real, z.imag)])
        assert _bits([entry["max_offdiag"]]) == _bits([_q(abs(rho[0, 1]))])
        assert _bits(entry["diagonal_probs"]) == _bits(
            [_q(rho[0, 0].real), _q(rho[1, 1].real)])
    assert any(m["max_offdiag"] > 0 for m in report.marginals)


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


def _fixed_report(table) -> RunReport:
    return RunReport("x", 1.0, table, [], {}, {"norm": {"pass": True}})


def _report_text(table) -> str:
    return json.dumps(_fixed_report(table).to_document())


@pytest.mark.parametrize("text", [
    "[" * 100_000,
    "1" + "0" * 5_000,
    _report_text([]),
    _report_text({"0": {"probability": True, "substate": []}}),
    _report_text({"0": {"probability": math.nan, "substate": [[1.0, 0.0]]}}),
    _report_text({"0": {"probability": 1.0, "substate": [[1.0, 0.0, 0.0]]}}),
], ids=["deep-nesting", "oversized-integer", "list-table", "bool-probability",
        "nan-probability", "three-number-pair"])
def test_parse_report_maps_every_json_failure_to_parse_error(text):
    with pytest.raises(ParseError):
        parse_report(text)


# Numbers whose json.dumps text is easy to get wrong: signed zero, the
# smallest subnormal, exponent notation below 1e-4, the range where
# "%.12g" and repr differ ([1e12, 1e16)), values of 1e16 and above, ints.
_numbers = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-5, 1e12, 1e16, -1e16, 1.5e300]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e12, max_value=1e16, exclude_max=True),
    st.floats(min_value=1e16, allow_infinity=False),
    st.integers(min_value=-10**20, max_value=10**20),
)
_labels = st.one_of(st.text(alphabet="01", max_size=6),
                    st.text(alphabet='01"\\%é€\U0001f600\n', max_size=6),
                    st.text(max_size=6))
_entries = st.fixed_dictionaries({
    "probability": _numbers,
    "substate": st.lists(st.lists(_numbers, min_size=2, max_size=2), max_size=10),
})
_reports = st.builds(
    RunReport,
    scenario_name=st.text(max_size=8),
    final_norm=_numbers,
    branch_table=st.dictionaries(_labels, _entries, max_size=6),
    marginals=st.lists(st.fixed_dictionaries(
        {"register": st.text(max_size=3), "matrix": st.lists(_numbers, max_size=3)}
    ), max_size=2),
    probabilities=st.dictionaries(st.text(max_size=4), _numbers, max_size=3),
    checks=st.dictionaries(st.text(max_size=4), st.fixed_dictionaries(
        {"pass": st.booleans(), "deviation": _numbers}), max_size=3),
    measurement=st.none() | st.fixed_dictionaries(
        {"outcome": st.integers(0, 1), "probability": _numbers}),
)


@settings(max_examples=200, deadline=None)
@given(_reports)
@example(_fixed_report({}))
@example(_fixed_report({"1": {"probability": 1.0, "substate": []}}))
@example(_fixed_report({"b": {"probability": 0.5, "substate": [[1, -0.0]]},
                        "a": {"probability": 5e-324, "substate": [[0.0, 1e16]]}}))
def test_emit_report_equals_indented_sorted_json_dumps(report):
    text = emit_report(report)
    assert text == json.dumps(report.to_document(), indent=2, sort_keys=True)
    assert parse_report(text) == report


def _bits(values) -> list[str]:
    return [float.hex(float(x)) for x in values]


_EDGES = [0.0, -0.0, 1e-12, -1e-12, math.nextafter(1e-12, 1.0),
          -math.nextafter(1e-12, 1.0), math.nextafter(1e-12, 0.0),
          9.9999999999995e-13, 5e-324, -5e-324, 2.2250738585072014e-308,
          1e-5, 0.99999999999995, 0.8535533905932737, 1e12, 123456789012345.6,
          1e16, -1e16, 1.7976931348623157e308]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_array_quantizer_equals_scalar_quantizer(values):
    a = np.array(_EDGES + values)
    assert _bits(_q_array(a)) == _bits(_q(x) for x in a)
    assert _q_array(a.reshape(1, -1)).shape == (1, a.size)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_array_quantizer_rejects_non_finite_values(bad):
    with pytest.raises(ValidationError):
        _q_array(np.array([0.5, bad, 1e-13]))


def test_wide_extended_report_equals_json_dumps_and_scalar_quantizer():
    scenario = replace(random_extended_scenario(np.random.default_rng(7), 10),
                       analyses=(AnalysisRequest("branches"),
                                 AnalysisRequest("marginal", ("M1",))))
    state = run(scenario)
    report = build_report(scenario, state)
    assert len(report.branch_table) == 1024
    assert emit_report(report) == json.dumps(
        report.to_document(), indent=2, sort_keys=True)
    table = analysis.branch_decompose(state)
    for label, i in table.entries.items():
        row = report.branch_table[label]
        assert _bits([row["probability"]]) == _bits([_q(table.weights[i])])
        assert row["substate"] == [[_q(z.real), _q(z.imag)] for z in table.substates[i]]
