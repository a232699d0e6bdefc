"""The package's public surface: the README's library sketch and CLI
examples, the names ``branchsim`` exports, the messages its Python API
raises, and the module names the benchmark's tracer wraps."""

import io
import math
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

import branchsim
from branchsim import analysis, cli, linalg, machine, report, verify
from branchsim.errors import ValidationError
from branchsim.gates import GateSpec
from branchsim.scenario import AnalysisRequest, builtin_scenario, builtin_scenarios

ROOT = Path(__file__).resolve().parents[1]


def _readme_sketch() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_sketch_runs(capsys):
    exec(compile(_readme_sketch(), "<README library sketch>", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["000", "111"]
    assert len(lines) == 3


def test_readme_cli_lines_parse():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(branchsim .*?)^```$", text, re.S | re.M)
    assert len(blocks) == 1
    lines = blocks[0].splitlines()
    assert len(lines) >= 7
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "branchsim"
        cli._PARSER.parse_args(argv[1:])  # SystemExit on an unknown option


def test_package_exports_exactly_the_sketch_imports():
    imported = re.search(r"^from branchsim import (.+)$", _readme_sketch(), re.M)
    names = sorted(name.strip() for name in imported.group(1).split(","))
    assert sorted(branchsim.__all__) == names


def _pauli_flips_state():
    return machine.run(builtin_scenario("pauli-flips"))


@pytest.mark.parametrize("call, message", [
    (lambda: GateSpec("raw", raw=((1, 0), (0, 1), (0, 0))), "raw gate must be 2x2, got (3, 2)"),
    (lambda: linalg.as_matrix([[math.nan, 0], [0, 1]]), "matrix contains non-finite entries"),
    (lambda: _pauli_flips_state().probability("C", 2), "outcome must be 0 or 1, got 2"),
    (lambda: machine.measure_control(_pauli_flips_state(), 0, force=2),
     "forced outcome must be 0 or 1, got 2"),
    (lambda: AnalysisRequest("bogus"), "unknown analysis kind 'bogus'"),
    (lambda: AnalysisRequest("witness", ("C",)), "analysis 'witness' takes 2 register(s), got 1"),
    (lambda: analysis.fidelity(np.eye(2) / 2, np.eye(4) / 4),
     "fidelity shape mismatch: (2, 2) vs (4, 4)"),
    (lambda: report._q(math.nan), "report values must be finite"),
], ids=["raw-gate-shape", "non-finite-matrix", "outcome", "forced-outcome",
        "analysis-kind", "analysis-arity", "fidelity-shapes", "report-value"])
def test_python_api_rejects_a_bad_argument_with_its_message(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


def test_benchmark_tracer_finds_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    owners = (analysis, cli, machine, verify, verify.CHECKS)

    def snapshot():
        return [dict(o if isinstance(o, dict) else vars(o)) for o in owners]

    before = snapshot()
    tracer = tracing.Tracer().install()  # AttributeError/KeyError on a missing name
    try:
        patched = sum(
            value is not old[name]
            for old, new in zip(before, snapshot()) for name, value in new.items()
        )
        assert patched == len(tracer._saved)
    finally:
        tracer.uninstall()
    for old, new in zip(before, snapshot()):
        assert new.keys() == old.keys()
        assert all(new[name] is old[name] for name in old)


def test_verify_checks_match_the_benchmark_list(monkeypatch):
    # bench/checks.py fails every verify op whose check names differ
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    assert sorted(verify.CHECKS) == sorted(tracing.VERIFY_CHECKS)


def test_benchmark_replay_equals_the_engine_exactly(monkeypatch):
    # the replay writes each slot of a pre-sized layout through the public
    # per-op entry points; the engine grows the layout one slot per round
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    rng = np.random.default_rng(31)
    scenarios = list(builtin_scenarios())
    for build in (verify.random_canonical_scenario, verify.random_extended_scenario):
        scenarios += [build(rng, n, mode)
                      for n in range(8) for mode in machine.INIT_MODES]
    for scenario in scenarios:
        state = machine.run(scenario)
        assert tracing.replay(tracing.Tracer(), scenario, state), scenario.name


def test_traced_run_still_runs_and_checks_rounds_one_by_one(monkeypatch):
    # the tracer times each round by the name run calls it under, and counts
    # each state's check; the gate array must not take a path around either
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    tracer = tracing.Tracer().install()
    try:
        for name in ("reinforce-two-step", "pauli-flips"):
            tracer.op = name
            argv = ["run", "--example", name]
            assert cli.main(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0
    finally:
        tracer.uninstall()

    def rounds(op):
        return [sum(span[0] == f"machine.{kind}" and span[4] == op for span in tracer.spans)
                for kind in ("iterate_extended", "iterate")]

    assert rounds("reinforce-two-step") == [1, 1]
    assert rounds("pauli-flips") == [0, 3]
    # one check per round, plus initialize's
    assert tracer.counts["reinforce-two-step"]["statevector_checks"] == 3
    assert tracer.counts["pauli-flips"]["statevector_checks"] == 4
