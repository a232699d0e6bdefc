import io
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from branchsim import analysis, builtin_scenario, run
from branchsim.errors import ParseError, ValidationError
from branchsim.report import (
    ROWS_PER_CHUNK,
    ZERO_FLOOR,
    RunReport,
    _integral_rows,
    _q,
    _quantized,
    _tokens,
    build_report,
    emit_report,
    parse_report,
)
from branchsim.scenario import AnalysisRequest, builtin_scenarios
from branchsim.verify import random_extended_scenario


def test_quantizer_twelve_significant_digits():
    assert _q(0.8535533905932737) == 0.853553390593
    assert _q(1.0000000000000002) == 1.0
    assert _q(-0.3826834323650897) == -0.382683432365


def test_quantizer_floors_dust_to_zero():
    assert _q(3e-13) == 0.0
    assert _q(-3e-13) == 0.0
    assert _q(1e-11) == 1e-11


def _emit(report: RunReport) -> str:
    out = io.StringIO()
    emit_report(report, out)
    return out.getvalue()


def _dumps(report: RunReport) -> str:
    return json.dumps(report.to_document(), indent=2, sort_keys=True)


def _assert_same_text(got: str, want: str) -> None:
    """``assert got == want``, failing with the first differing offset:
    pytest's own diff of two megabyte strings takes minutes."""
    if got != want:
        at = next(i for i, (a, b) in enumerate(zip(got + "\0", want + "\1")) if a != b)
        near = slice(max(at - 60, 0), at + 60)
        pytest.fail(f"differs at {at}: {got[near]!r} != {want[near]!r}")


def test_report_round_trip_identity():
    for name in ("pauli-flips", "rotations-feedback", "reinforce-two-step"):
        scenario = builtin_scenario(name)
        report = build_report(scenario, run(scenario))
        assert parse_report(_emit(report)).to_document() == report.to_document()


def test_report_is_byte_identical_across_runs():
    for scenario in builtin_scenarios():
        first = _emit(build_report(scenario, run(scenario)))
        second = _emit(build_report(scenario, run(scenario)))
        assert first == second, scenario.name


def test_reports_compare_equal_exactly():
    """Two builds of one run agree bit for bit before quantization, which the
    12-digit emitted bytes cannot show."""
    for scenario in builtin_scenarios():
        report = build_report(scenario, run(scenario))
        again = build_report(scenario, run(scenario))
        table, other = report.branch_table, again.branch_table
        assert table.entries == other.entries, scenario.name
        for field in ("weights", "substates"):
            mine, theirs = getattr(table, field), getattr(other, field)
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
            assert mine.tobytes() == theirs.tobytes(), (scenario.name, field)
        rest = {k: v for k, v in vars(report).items() if k != "branch_table"}
        assert rest == {k: v for k, v in vars(again).items() if k != "branch_table"}


def test_report_ghz_branch_table():
    scenario = builtin_scenario("pauli-flips")
    report = build_report(scenario, run(scenario))
    table = report.to_document()["branch_table"]
    assert set(table) == {"000", "111"}
    assert table["000"]["probability"] == 0.5
    assert table["111"]["probability"] == 0.5
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
    scenario = replace(builtin_scenario("pauli-flips"), measure_seed=7)
    state = run(scenario)
    r1 = build_report(scenario, state)
    r2 = build_report(scenario, state)
    assert r1.measurement == r2.measurement
    assert r1.measurement["probability"] == 0.5
    assert r1.measurement["outcome"] in (0, 1)
    r3 = build_report(replace(scenario, measure_seed=8), state)
    assert r3.measurement["probability"] == 0.5


def test_report_without_branches_streams_an_empty_table():
    scenario = replace(builtin_scenario("rotations-feedback"),
                       analyses=(AnalysisRequest("marginal", ("M1",)),))
    report = build_report(scenario, run(scenario))
    assert isinstance(report.branch_table, analysis.BranchTable)
    assert report.branch_table.entries == ()
    assert report.to_document()["branch_table"] == {}
    assert _emit(report) == _dumps(report)


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
def test_parse_report_reads_back_indented_sorted_json_dumps(report):
    assert parse_report(_dumps(report)).to_document() == report.to_document()


def _bits(values) -> list[str]:
    return [float.hex(float(x)) for x in values]


_EDGES = [0.0, -0.0, 1e-12, -1e-12, math.nextafter(1e-12, 1.0),
          -math.nextafter(1e-12, 1.0), math.nextafter(1e-12, 0.0),
          -math.nextafter(1e-12, 0.0), 9.9999999999995e-13, 5e-324, -5e-324,
          2.2250738585072014e-308, 1e-5, 1.5e-5, -1.5e-5, 1.0, -1.0,
          0.99999999999995, -0.99999999999995, 0.8535533905932737, 1e12,
          123456789012345.6, 1e16, -1e16, 1.7976931348623157e308]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_array_quantizer_equals_scalar_quantizer(values):
    a = np.array(_EDGES + values)
    assert _bits(map(float, _tokens(a))) == _bits(_q(x) for x in a)
    small = a[np.abs(a) < 1e12]
    assert _tokens(small) == [json.dumps(_q(x)) for x in small]
    assert _quantized(a.reshape(1, -1)).shape == (1, a.size)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_array_quantizer_rejects_non_finite_values(bad):
    with pytest.raises(ValidationError):
        _tokens(np.array([0.5, bad, 1e-13]))


def test_tokens_of_the_floor_integral_values_and_exponent_forms():
    values = [1e-12, -1e-12, math.nextafter(1e-12, 1.0), math.nextafter(1e-12, 0.0),
              -math.nextafter(1e-12, 0.0), -0.0, 5e-324, 1.0, -1.0,
              0.99999999999995, 1e-05, 1.5e-05]
    assert _tokens(np.array(values)) == [
        "1e-12", "-1e-12", "1e-12", "0.0", "0.0", "0.0", "0.0", "1.0", "-1.0",
        "1.0", "1e-05", "1.5e-05"]


def _array_report(numbers, rows=None, n_memories=13) -> RunReport:
    """A report whose branch table has one row per row of ``numbers`` (r, 17),
    at ``rows`` (default 0, 1, ...) of ``n_memories`` binary digits."""
    numbers = np.asarray(numbers, dtype=np.float64).reshape(-1, 17)
    rows = np.arange(len(numbers)) if rows is None else np.asarray(rows, np.int64)
    table = analysis.BranchTable(
        n_memories, rows,
        numbers[:, 0].copy(),
        numbers[:, 1:].copy().view(np.complex128))
    return RunReport("x", 1.0, table, [], {"S_0": 0.5}, {"norm": {"pass": True}})


def test_array_table_edge_values_equal_json_dumps():
    # every edge value below 1e12 in every column: row r starts at edges[r]
    edges = np.array([x for x in _EDGES if abs(x) < 1e12])
    n = len(edges)
    report = _array_report(edges[(np.arange(n)[:, None] + np.arange(17)) % n])
    text = _emit(report)
    _assert_same_text(text, _dumps(report))
    assert '"probability": 1.0,' in text and '"probability": 0.0,' in text


class _ChunkCounter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.chunks = 0

    def write(self, s):
        self.chunks += '"probability"' in s
        return super().write(s)


@pytest.mark.parametrize("rows", [0, 1, ROWS_PER_CHUNK - 1, ROWS_PER_CHUNK,
                                  ROWS_PER_CHUNK + 1])
def test_array_table_chunk_boundaries_equal_json_dumps(rows):
    rng = np.random.default_rng(rows)
    numbers = rng.uniform(-1.0, 1.0, (rows, 17)) * 10.0 ** -rng.integers(0, 14, (rows, 17))
    report = _array_report(numbers)
    out = _ChunkCounter()
    emit_report(report, out)
    _assert_same_text(out.getvalue(), _dumps(report))
    assert out.chunks == -(-rows // ROWS_PER_CHUNK)
    assert parse_report(out.getvalue()).to_document() == report.to_document()


@pytest.mark.parametrize("flag_first", [True, False])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17])
def test_label_pieces_equal_json_dumps(n, flag_first):
    # one, two and three pieces of at most 8 digits, the first full or short
    rng = np.random.default_rng(n)
    rows = np.unique(np.concatenate([[0, 2 ** n - 1], rng.integers(0, 2 ** n, 40)]))
    numbers = rng.uniform(-1.0, 1.0, (rows.size, 17))
    numbers[int(not flag_first)::2, 5] = 1.0  # every other row through the token template
    report = _array_report(numbers, rows, n)
    assert _integral_rows(numbers).tolist() == [i % 2 == (not flag_first)
                                                for i in range(rows.size)]
    assert report.branch_table.entries == tuple(format(r, f"0{n}b") for r in rows)
    _assert_same_text(_emit(report), _dumps(report))


_FLOOR_EDGES = [ZERO_FLOOR, -ZERO_FLOOR, math.nextafter(ZERO_FLOOR, 0.0),
                -math.nextafter(ZERO_FLOOR, 0.0), math.nextafter(ZERO_FLOOR, 1.0)]
# values whose json.dumps text is integral ("0.0", "1.0", "-1.0", ...)
_INTEGRAL = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.99999999999995, -0.99999999999995]),
    st.integers(1, 50).map(lambda k: 1 - k * 1e-13))
_MIXED = st.one_of(_INTEGRAL, st.sampled_from([1e-05, 1.5e-05, -1.5e-05] + _FLOOR_EDGES),
                   st.floats(-1.0, 1.0))


# no shrinking: shrinking megabyte reports takes minutes before a fault is reported
@settings(max_examples=10, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3),
       st.lists(st.tuples(st.integers(0, ROWS_PER_CHUNK + 2), st.integers(0, 16), _MIXED),
                max_size=60),
       st.tuples(st.integers(0, 16), _INTEGRAL), st.tuples(st.integers(0, 16), _INTEGRAL))
def test_mixed_tables_across_a_chunk_boundary_equal_json_dumps(seed, extra, cells,
                                                              last, first):
    # integral-bearing rows on both sides of the first chunk boundary
    rng = np.random.default_rng(seed)
    shape = (ROWS_PER_CHUNK + extra, 17)
    numbers = rng.uniform(-1.0, 1.0, shape) * 10.0 ** -rng.integers(0, 14, shape)
    for row, col, value in cells:
        numbers[min(row, len(numbers) - 1), col] = value
    numbers[ROWS_PER_CHUNK - 1, last[0]] = last[1]
    numbers[ROWS_PER_CHUNK, first[0]] = first[1]
    report = _array_report(numbers)
    _assert_same_text(_emit(report), _dumps(report))


_SMALL = [x for x in _EDGES if abs(x) < 1e12]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.floats(-1e12, 1e12, exclude_min=True, exclude_max=True),
    st.builds(lambda n, k, e: (n + k * 1e-13) * 10.0 ** e,
              st.integers(-9, 9), st.integers(-60, 60), st.integers(0, 11))),
    max_size=40))
def test_integral_screen_flags_every_value_written_without_point_or_exponent(values):
    a = np.array(_SMALL + _FLOOR_EDGES + values)
    flagged = _integral_rows(a.reshape(-1, 1)).tolist()
    for x, flag in zip(a.tolist(), flagged):
        text = "%.12g" % x
        if ("." not in text and "e" not in text) or 0 < abs(x) < ZERO_FLOOR:
            assert flag, text


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_writer_rejects_a_non_finite_table_value(bad):
    numbers = np.full((3, 17), 0.25)
    numbers[1, 5] = bad
    with pytest.raises(ValidationError, match="^report values must be finite$"):
        _emit(_array_report(numbers))


def test_writer_peak_memory_on_a_wide_extended_table(tmp_path):
    scenario = replace(random_extended_scenario(np.random.default_rng(3), 14),
                       analyses=(AnalysisRequest("branches"),))
    state = run(scenario)
    tracemalloc.start()
    try:
        report = build_report(scenario, state)
        with open(tmp_path / "report.json", "w", encoding="utf-8") as fh:
            emit_report(report, fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.branch_table.entries) == 2 ** 14
    assert peak < 10 * 2 ** 20


class _Discard:
    def write(self, s):
        return len(s)


@pytest.mark.parametrize("n", [12, 14])
def test_writer_memory_is_bounded_by_one_chunk(n):
    scenario = replace(random_extended_scenario(np.random.default_rng(3), n),
                       analyses=(AnalysisRequest("branches"),))
    report = build_report(scenario, run(scenario))
    tracemalloc.start()  # the built report is not counted
    try:
        emit_report(report, _Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.branch_table.entries) == 2 ** n
    assert peak <= 3 * 2 ** 20


def test_branch_decompose_retains_only_its_three_arrays():
    # a per-row label tuple would be about 1 MiB more on 16,384 rows
    state = run(random_extended_scenario(np.random.default_rng(3), 14))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = analysis.branch_decompose(state)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert np.array_equal(table.rows, np.arange(2 ** 14)) and not table.rows.flags.writeable
    assert retained <= table.rows.nbytes + table.weights.nbytes + table.substates.nbytes + 2 ** 16


def test_wide_extended_report_equals_json_dumps_and_scalar_quantizer():
    scenario = replace(random_extended_scenario(np.random.default_rng(7), 10),
                       analyses=(AnalysisRequest("branches"),
                                 AnalysisRequest("marginal", ("M1",))))
    state = run(scenario)
    report = build_report(scenario, state)
    assert len(report.branch_table.entries) == 1024
    _assert_same_text(_emit(report), _dumps(report))
    doc_table = report.to_document()["branch_table"]
    table = analysis.branch_decompose(state)
    for i, label in enumerate(table.entries):
        row = doc_table[label]
        assert _bits([row["probability"]]) == _bits([_q(table.weights[i])])
        assert row["substate"] == [[_q(z.real), _q(z.imag)] for z in table.substates[i]]
