import copy
import io
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from branchsim import analysis, cli, machine, verify
from branchsim.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    EXIT_VERIFY,
    MAX_DOCUMENT_BYTES,
    build_parser,
    main,
)
from branchsim.report import ROWS_PER_CHUNK, parse_report
from branchsim.scenario import (
    AnalysisRequest,
    builtin_scenario,
    builtin_scenarios,
    emit_scenario,
    parse_scenario,
)
from branchsim.verify import random_extended_scenario

GOLDEN = Path(__file__).parent / "golden"


def test_run_example_ghz_branch_table(capsys):
    assert main(["run", "--example", "pauli-flips"]) == EXIT_OK
    report = parse_report(capsys.readouterr().out)
    assert set(report.branch_table) == {"000", "111"}
    assert report.branch_table["000"]["probability"] == 0.5


def test_run_example_feedback_probability(capsys):
    assert main(["run", "--example", "rotations-feedback"]) == EXIT_OK
    report = parse_report(capsys.readouterr().out)
    assert report.probabilities["S_1"] == pytest.approx(0.853553390593, abs=1e-9)


def test_run_missing_scenario_file(capsys):
    assert main(["run", "--scenario", "missing.json"]) == EXIT_IO
    assert "error" in capsys.readouterr().err


def test_run_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["run", "--scenario", str(path)]) == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


def test_run_invalid_scenario(tmp_path, capsys):
    doc = {
        "name": "bad",
        "init": {"alpha": 0.6, "beta": 0.6, "gamma": 1.0, "delta": 0.0,
                 "mode": "uncorrelated"},
        "iterations": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--scenario", str(path)]) == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err


def test_document_past_the_byte_cap_exits_3_before_it_is_decoded(tmp_path, capsys):
    # the same document padded with spaces: at the cap it runs, one byte past
    # it exits 3 having held little more than the bytes it read
    doc = (GOLDEN / "pauli-flips.scenario.json").read_bytes()
    at_cap, past_cap = tmp_path / "at-cap.json", tmp_path / "past-cap.json"
    at_cap.write_bytes(doc.ljust(MAX_DOCUMENT_BYTES))
    past_cap.write_bytes(doc.ljust(MAX_DOCUMENT_BYTES + 1))
    tracemalloc.start()
    try:
        code = main(["run", "--scenario", str(past_cap)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert peak < 2 * MAX_DOCUMENT_BYTES, f"peak {peak} bytes"
    assert main(["run", "--scenario", str(at_cap)]) == EXIT_OK
    golden = (GOLDEN / "pauli-flips.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_run_unknown_example(capsys):
    assert main(["run", "--example", "nope"]) == EXIT_VALIDATION


def test_run_scenario_file_to_out_path(tmp_path, capsys):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(emit_scenario(builtin_scenario("reinforce-two-step")),
                             encoding="utf-8")
    out_path = tmp_path / "report.json"
    assert main(["run", "--scenario", str(scenario_path),
                 "--out", str(out_path)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    report = parse_report(out_path.read_text(encoding="utf-8"))
    assert report.branch_table["10"]["probability"] == 0.25


def test_run_output_byte_identical(capsys):
    assert main(["run", "--example", "rotations-nofeedback"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["run", "--example", "rotations-nofeedback"]) == EXIT_OK
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("name", [s.name for s in builtin_scenarios()])
def test_run_example_matches_golden_report(name, tmp_path, capsys):
    golden = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert main(["run", "--example", name]) == EXIT_OK
    assert capsys.readouterr().out == golden
    # the emitted document is the golden one, and run back as a scenario
    # file it reports the same bytes
    assert main(["examples", "--emit", name]) == EXIT_OK
    emitted = tmp_path / f"{name}.scenario.json"
    emitted.write_text(capsys.readouterr().out, encoding="utf-8")
    assert emitted.read_bytes() == (GOLDEN / f"{name}.scenario.json").read_bytes()
    assert main(["run", "--scenario", str(emitted)]) == EXIT_OK
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("name", [s.name for s in builtin_scenarios()])
def test_run_example_to_out_path_matches_golden_report(name, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["run", "--example", name, "--out", str(out_path)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert out_path.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


class _FullAfterFirstChunk(io.StringIO):
    """A stdout that takes one chunk of branch-table rows, then is full."""

    def __init__(self):
        super().__init__()
        self.chunks = 0

    def write(self, s):
        if self.chunks:
            raise OSError(28, "No space left on device")
        self.chunks += '"probability"' in s
        return super().write(s)


def test_stdout_failing_after_the_first_chunk_is_an_io_error(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    scenario = replace(random_extended_scenario(np.random.default_rng(5), 13),
                       analyses=(AnalysisRequest("branches"),))  # 2^13 rows
    path.write_text(emit_scenario(scenario), encoding="utf-8")
    stdout = _FullAfterFirstChunk()
    assert main(["run", "--scenario", str(path)], stdout=stdout) == EXIT_IO
    assert stdout.chunks == 1 and stdout.getvalue().count('"probability"') == ROWS_PER_CHUNK
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: [Errno 28] No space left on device"]


@pytest.mark.parametrize("stage", ["run", "emit_report"])
def test_out_of_memory_is_exit_1_with_one_line(stage, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, stage, exhausted)
    assert main(["run", "--example", "pauli-flips"]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory\n"
    assert captured.out == ""


def _exit_and_output(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["--help"], ["run", "--help"], ["examples", "--help"], ["verify", "--help"],
    [], ["run"], ["bogus"], ["run", "--example", "x", "--scenario", "y"],
    ["verify", "--seed", "x"],
], ids=["help", "run-help", "examples-help", "verify-help", "no-command",
        "run-no-source", "unknown-command", "two-sources", "non-integer-seed"])
def test_help_text_and_usage_exit_codes_match_a_fresh_parser(argv, capsys):
    fresh = _exit_and_output(build_parser().parse_args, argv, capsys)
    assert fresh[0] == (0 if "--help" in argv else 2)
    for _ in range(2):  # the same on every call of the one shared parser
        assert _exit_and_output(main, argv, capsys) == fresh


def _pauli_doc(**changes) -> bytes:
    doc = json.loads(emit_scenario(builtin_scenario("pauli-flips")))
    doc.update(changes)
    return json.dumps(doc).encode("utf-8")


_INIT = json.loads(emit_scenario(builtin_scenario("pauli-flips")))["init"]


@pytest.mark.parametrize("content, argv", [
    pytest.param(_pauli_doc(measure={"seed": -1}), ["run"],
                 id="negative-measure-seed"),
    pytest.param(_pauli_doc(measure={"seed": -1}), ["run", "--seed", "3"],
                 id="negative-measure-seed-under-seed-flag"),
    pytest.param(_pauli_doc(measure={"seed": 3}), ["run", "--seed", "-1"],
                 id="negative-seed-flag"),
    pytest.param(None, ["verify", "--seed", "-1"], id="negative-verify-seed"),
    pytest.param(None, ["run", "--example", "pauli-flips", "--seed", "-1"],
                 id="negative-seed-flag-without-measure"),
    pytest.param(_pauli_doc(init={**_INIT, "alpha": 1e308, "beta": 1e308}),
                 ["run"], id="overflowing-amplitudes"),
    pytest.param(_pauli_doc(init={**_INIT, "alpha": 10**400}),
                 ["run"], id="amplitude-beyond-float-range"),
    pytest.param(_pauli_doc(iterations=[{"u0": {"named": "rx", "angle": -10**400},
                                         "u1": {"named": "identity"}}]),
                 ["run"], id="angle-beyond-float-range"),
    pytest.param(b"[" * 100_000, ["run"], id="deep-nesting"),
    pytest.param(b"[" + b"1" * 5_000 + b"]", ["run"], id="oversized-integer"),
    pytest.param(b'{"name": "\xff"}', ["run"], id="not-utf8"),
])
def test_malformed_input_ends_in_exit_code(tmp_path, capsys, content, argv):
    if content is not None:
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        argv = argv + ["--scenario", str(path)]
    assert main(argv) in (EXIT_PARSE, EXIT_VALIDATION)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("edit, line", [
    pytest.param(lambda d: d["iterations"][1].update(r0={"named": "identity"}),
                 "iterations[1]: r0 and r1 must be both present or both absent",
                 id="unpaired-steering"),
    pytest.param(lambda d: d["init"].update(mode="bogus"),
                 "init: unknown init mode 'bogus'", id="unknown-init-mode"),
    pytest.param(lambda d: d["init"].update(alpha=1.5, beta=1.5),
                 "init: |alpha|^2 + |beta|^2 = 4.5, expected 1", id="control-norm"),
    pytest.param(lambda d: d.update(analyses=[{"marginal": "M9"}]),
                 "analyses[0]: analysis 'marginal' references unknown register 'M9'",
                 id="unknown-register"),
    pytest.param(lambda d: d.update(analyses=["branches", {"witness": ["C", "C"]}]),
                 "analyses[1]: witness needs two distinct registers",
                 id="witness-on-one-register"),
])
def test_document_validation_error_names_its_path(tmp_path, edit, line):
    doc = json.loads(emit_scenario(builtin_scenario("pauli-flips")))
    edit(doc)
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    code = main(["run", "--scenario", str(path)], stdout=out, stderr=err)
    assert (code, out.getvalue()) == (EXIT_VALIDATION, "")
    assert err.getvalue() == f"validation error: {line}\n"


@pytest.mark.parametrize("argv", [
    ["run", "--example", "pauli-flips"],
    ["verify", "--only", "golden"],
], ids=["run", "verify"])
def test_run_bad_tolerance_key(capsys, argv):
    # every tolerance is fixed, so no command has a --tolerance option at all
    for pair in ("bogus=1", "norm=1"):
        code, out, err = _exit_and_output(main, argv + ["--tolerance", pair], capsys)
        assert (code, out) == (EXIT_PARSE, "")
        assert "unrecognized arguments: --tolerance" in err


# Values a hand-edited or hostile scenario document might carry.
# Well-formed raw gates whose unitarity product overflows (inf, or inf - inf)
_OVERFLOWING_RAW = (
    [[[1e200, 0], [0, 0]], [[0, 0], [1e-200, 0]]],
    [[[1e200, 0], [1e200, 0]], [[1e200, 0], [-1e200, 0]]],
)
_TINY_RAW = [[[1, 0], [1e-300, 0]], [[-1e-300, 0], [1, 0]]]  # unitary to 1e-300
_ODD_VALUES = st.one_of(
    st.sampled_from([
        math.nan, math.inf, -math.inf, 1e308, -1e308, 2**70, -2**70, 10**400,
        -1, 0, True, None, "", "pi/0", "3*pi/", "-pi/-2", "0*pi", "M99", "Q",
        [], {}, [1.0], [0.6, 0.8, 0.0], ["C", "C"], ["M1", "M99"],
        {"named": "rx"}, {"named": "bogus"}, {"named": "rx", "angle": "pi"},
        {"raw": [[1, 0], [0, 1]]}, {"raw": [[1, 1], [1, 1]]},
        *({"raw": raw} for raw in _OVERFLOWING_RAW), {"raw": _TINY_RAW},
        {"marginal": "M99"}, {"witness": ["C", "S"]}, {"seed": -5},
    ]),
    st.floats(),
    st.integers(),
    st.text(max_size=6),
)
_FIELD_NAMES = st.sampled_from([
    "name", "init", "iterations", "analyses", "measure", "alpha", "beta",
    "gamma", "delta", "mode", "system_init", "u0", "u1", "f0", "f1", "v0",
    "v1", "r0", "r1", "named", "angle", "raw", "seed", "marginal", "witness",
    "bogus",
])
_BUILTIN_DOCS = [json.loads(emit_scenario(s)) for s in builtin_scenarios()]


def _slots(doc) -> list:
    """Every (container, key) pair in a JSON document, depth first."""
    out = []
    stack = [doc]
    while stack:
        node = stack.pop()
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, child in items:
            out.append((node, key))
            stack.append(child)
    return out


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_builtin_documents_end_in_an_exit_code(tmp_path, data):
    doc = copy.deepcopy(data.draw(st.sampled_from(_BUILTIN_DOCS)))
    for _ in range(data.draw(st.integers(1, 3))):
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "add":
            dicts = [doc] + [c[k] for c, k in _slots(doc) if isinstance(c[k], dict)]
            target = data.draw(st.sampled_from(dicts))
            target[data.draw(_FIELD_NAMES)] = copy.deepcopy(data.draw(_ODD_VALUES))
            continue
        container, key = data.draw(st.sampled_from(_slots(doc)))
        if action == "replace":
            container[key] = copy.deepcopy(data.draw(_ODD_VALUES))
        else:
            del container[key]
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    stderr = io.StringIO()
    code = main(["run", "--scenario", str(path)], stdout=io.StringIO(), stderr=stderr)
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION)
    assert "Traceback" not in stderr.getvalue()


@pytest.mark.parametrize("raw", _OVERFLOWING_RAW)
def test_raw_gate_whose_unitarity_check_overflows_exits_3(tmp_path, raw):
    doc = json.loads(emit_scenario(builtin_scenario("pauli-flips")))
    doc["iterations"][0]["u1"] = {"raw": raw}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", "--scenario", str(path)], stdout=out, stderr=err)
    assert (code, out.getvalue(), caught) == (EXIT_VALIDATION, "", [])
    assert err.getvalue().startswith("validation error: iterations[0].u1: raw gate")
    assert err.getvalue().count("\n") == 1
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "branchsim", "run", "--scenario",
         str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_VALIDATION
    assert (proc.stdout, proc.stderr) == ("", err.getvalue())


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_raw_gate_with_a_non_finite_entry_exits_3(tmp_path, value):
    # json.dumps writes NaN, Infinity and -Infinity, which json.loads accepts
    doc = json.loads(emit_scenario(builtin_scenario("pauli-flips")))
    doc["iterations"][0]["u1"] = {"raw": [[[1, 0], [0, 0]], [[0, value], [1, 0]]]}
    path = tmp_path / "non-finite.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", "--scenario", str(path)], stdout=out, stderr=err)
    assert (code, out.getvalue(), caught) == (EXIT_VALIDATION, "", [])
    assert err.getvalue() == (
        "validation error: iterations[0].u1: matrix contains non-finite entries\n")


_IDENTITY_RAW = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
_BAD_GATES = {
    "infinite-angle": {"named": "rx", "angle": math.inf},
    "angle-1e400": {"named": "rx", "angle": "1e400"},  # written as a bare 1e400
    "missing-angle": {"named": "ry"},
    "angle-on-pauli-x": {"named": "pauli_x", "angle": "pi/3"},
    "bool-angle": {"named": "rz", "angle": True},
    "unknown-kind": {"named": "bogus"},
    "named-and-raw": {"named": "rx", "angle": "pi/3", "raw": _IDENTITY_RAW},
    "raw-with-stray-field": {"raw": _IDENTITY_RAW, "angle": "pi/3"},
    "non-unitary-raw": {"raw": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]},
    "overflowing-raw": {"raw": _OVERFLOWING_RAW[0]},
    "raw-3x2": {"raw": _IDENTITY_RAW + [[[0, 0], [0, 0]]]},
    "non-object": "pauli_x",
}
_ROUND_SLOTS = ("u0", "u1", "f0", "f1", "v0", "v1", "r0", "r1")
_GATE_SLOTS = ["init.system_init"] + [f"iterations[0].{s}" for s in _ROUND_SLOTS]


@pytest.mark.parametrize("slot", _GATE_SLOTS)
@pytest.mark.parametrize("form", _BAD_GATES)
def test_bad_gate_in_any_slot_names_the_slot(tmp_path, form, slot):
    identity = {"named": "identity"}
    doc = {"name": "slots", "init": {**_INIT, "system_init": identity},
           "iterations": [{s: identity for s in _ROUND_SLOTS}]}
    owner, field = slot.rsplit(".", 1)
    target = doc["init"] if owner == "init" else doc["iterations"][0]
    target[field] = _BAD_GATES[form]
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(doc).replace('"1e400"', "1e400"), encoding="utf-8")
    stderr = io.StringIO()
    code = main(["run", "--scenario", str(path)], stdout=io.StringIO(), stderr=stderr)
    assert code in (EXIT_PARSE, EXIT_VALIDATION)
    lines = stderr.getvalue().splitlines()
    kind = "parse" if code == EXIT_PARSE else "validation"
    assert len(lines) == 1
    assert lines[0].startswith((f"{kind} error: {slot}:", f"{kind} error: {slot}."))


_BEYOND_FLOAT = "1" + "0" * 400  # a JSON integer that json.loads keeps exact
_NOT_A_NUMBER = "expected a number or [re, im] pair"
_OUT_OF_RANGE = "number is outside the floating-point range"
_BAD_ENTRIES = {  # written into the document as is; the message for each
    "true": ("true", _NOT_A_NUMBER),
    "string": ('"1"', _NOT_A_NUMBER),
    "null": ("null", _NOT_A_NUMBER),
    "triple": ("[1, 2, 3]", _NOT_A_NUMBER),
    "nested-re": ("[[1], 0]", _NOT_A_NUMBER),
    "bool-re": ("[true, 1]", _NOT_A_NUMBER),
    "beyond-float": (_BEYOND_FLOAT, _OUT_OF_RANGE),
    "beyond-float-re": (f'[{_BEYOND_FLOAT}, "x"]', _OUT_OF_RANGE),  # re decides first
    "beyond-float-im": (f'["x", {_BEYOND_FLOAT}]', _NOT_A_NUMBER),
}


@pytest.mark.parametrize("slot", ["iterations[0].u1.raw[1][0]", "init.alpha"])
@pytest.mark.parametrize("form", _BAD_ENTRIES)
def test_bad_complex_entry_exits_2_with_its_path(tmp_path, form, slot):
    text, message = _BAD_ENTRIES[form]
    doc = json.loads(emit_scenario(builtin_scenario("pauli-flips")))
    if slot == "init.alpha":
        doc["init"]["alpha"] = "@entry@"
    else:
        doc["iterations"][0]["u1"] = {"raw": [[[1, 0], [0, 0]], ["@entry@", [1, 0]]]}
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(doc).replace('"@entry@"', text), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    code = main(["run", "--scenario", str(path)], stdout=out, stderr=err)
    assert (code, out.getvalue()) == (EXIT_PARSE, "")
    assert err.getvalue() == f"parse error: {slot}: {message}\n"


def test_run_seed_flag_overrides_measure_seed(tmp_path, capsys):
    scenario = replace(builtin_scenario("pauli-flips"), measure_seed=3)
    path = tmp_path / "measured.json"
    path.write_text(emit_scenario(scenario), encoding="utf-8")
    assert main(["run", "--scenario", str(path)]) == EXIT_OK
    baseline = parse_report(capsys.readouterr().out)
    assert baseline.measurement["probability"] == 0.5
    assert main(["run", "--scenario", str(path), "--seed", "3"]) == EXIT_OK
    override_same = parse_report(capsys.readouterr().out)
    assert override_same.measurement == baseline.measurement


def test_run_seed_flag_measures_a_scenario_without_measure(tmp_path, capsys):
    # pauli-flips has no measure: the flag gives it one, as measure_seed would
    assert builtin_scenario("pauli-flips").measure_seed is None
    path = tmp_path / "measured.json"
    path.write_text(emit_scenario(replace(builtin_scenario("pauli-flips"), measure_seed=7)),
                    encoding="utf-8")
    assert main(["run", "--scenario", str(path)]) == EXIT_OK
    measured = capsys.readouterr().out
    assert main(["run", "--example", "pauli-flips", "--seed", "7"]) == EXIT_OK
    flagged = capsys.readouterr().out
    assert parse_report(flagged).measurement["probability"] == 0.5
    assert flagged == measured


def test_examples_listing(capsys):
    assert main(["examples"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("pauli-flips")


def test_examples_emit_round_trips(capsys):
    assert main(["examples", "--emit", "rotations-feedback"]) == EXIT_OK
    emitted = capsys.readouterr().out
    assert parse_scenario(emitted) == builtin_scenario("rotations-feedback")


def test_examples_emit_unknown_name(capsys):
    assert main(["examples", "--emit", "nope"]) == EXIT_VALIDATION


def test_verify_golden_suite(capsys):
    assert main(["verify", "--only", "golden"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(": PASS" in line for line in lines)
    assert all(line.startswith("golden_") for line in lines)


def test_verify_rejects_unknown_suite(capsys):
    assert main(["verify", "--only", "bogus"]) == EXIT_VALIDATION


def test_verify_tolerance_injection_fails(capsys, monkeypatch):
    # one check past its tolerance fails verify; the others still run and pass
    monkeypatch.setitem(verify.CHECKS, "property_norm_preservation",
                        lambda rng: verify.CheckResult(
                            "property_norm_preservation", False, 1.0, 0.5, 7))
    assert main(["verify", "--only", "properties"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    failed = [line for line in lines if ": FAIL (" in line]
    assert failed == ["property_norm_preservation: FAIL "
                      "(deviation 1.000000e+00, tolerance 5.000000e-01)"]
    assert len(lines) == 10
    assert all(line.startswith("property_") and ": PASS (" in line
               for line in lines if line not in failed)
    assert captured.err.splitlines() == [
        "verify failed: property_norm_preservation deviated by 1.000000e+00 at draw 7"
    ]


def test_verify_fails_every_check_on_an_engine_that_breaks_the_norm(capsys, monkeypatch):
    # each round's residual grows by 1e-6: the state's own check raises in
    # every check's first draw, which fails that check rather than the run
    update = machine._controlled_update

    def drifting(*args):
        rows, residual = update(*args)
        return rows, residual * (1 + 1e-6)

    monkeypatch.setattr(machine, "_controlled_update", drifting)
    assert main(["verify"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 15
    assert all(": FAIL (deviation inf, tolerance " in line for line in lines)
    assert ("property_norm_preservation: FAIL "
            "(deviation inf, tolerance 1.000000e-10)") in lines
    errors = captured.err.splitlines()
    assert len(errors) == 15
    assert ("verify failed: property_norm_preservation deviated by inf at draw 0: "
            "state norm deviates from 1 by 1.000e-06") in errors


def test_verify_fails_without_a_traceback_on_a_missing_golden_branch(capsys, monkeypatch):
    decompose = analysis.branch_decompose

    def drop_last_row(state):
        table = decompose(state)
        return replace(table, rows=table.rows[:-1], weights=table.weights[:-1],
                       substates=table.substates[:-1])

    monkeypatch.setattr(analysis, "branch_decompose", drop_last_row)
    assert main(["verify", "--only", "golden"]) == EXIT_VERIFY
    lines = capsys.readouterr().out.splitlines()
    assert ("golden_rotations_feedback: FAIL "
            "(deviation 2.000000e+00, tolerance 1.000000e+00)") in lines


def test_verify_output_deterministic(capsys):
    assert main(["verify", "--only", "golden", "--seed", "5"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["verify", "--only", "golden", "--seed", "5"]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "branchsim", "examples"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 4
