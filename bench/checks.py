"""Correctness checks on every op's output, run after the workload process.

- Scenarios of at most ``ORACLE_MAX_QUBITS`` qubits: the parsed report
  must match, within ``TOL``, a report built from the state that
  ``verify.oracle_run(..., compose=False)`` computes by explicit
  Kronecker-built matrices.
- Larger scenarios: invariants that follow from the scenario alone.
  Memory slot M1 records the control's basis label in round one and is
  never touched again, so its marginal's diagonal is (|alpha|^2,
  |beta|^2) in both round kinds.  Canonical rounds never act on the
  control, so branches are only 0^n and 1^n with those weights, every
  memory marginal is diagonal, C and M1 are entangled, and the control's
  measurement probability is the matching weight.
- Every report's own ``checks`` entries that carry a ``pass`` flag pass.
- A ``verify`` op exits 0 and prints a PASS line for each of its checks.
- Every repeat of an input gives byte-identical stdout.
"""

from __future__ import annotations

import json
import re

from tracing import VERIFY_CHECKS

ORACLE_MAX_QUBITS = 10
TOL = 1e-9

# The witness's product fidelity goes through square roots of 4x4 density
# matrices that are often rank-deficient, so an amplitude change of 1e-16
# moves it by about sqrt(1e-16) = 1e-8: the program determines it only to
# that precision, and engine and oracle states agree far more closely.
FIDELITY_TOL = 1e-6

_VERIFY_LINE = re.compile(r"^(\w+): (PASS|FAIL) \(")


def _close(got, want, path="") -> str | None:
    """First difference between two report documents, or None."""
    if isinstance(want, bool) or isinstance(got, bool):
        return None if got is want else f"{path}: {got!r} != {want!r}"
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        tol = FIDELITY_TOL if path.endswith(".product_fidelity") else TOL
        return None if abs(got - want) <= tol else f"{path}: {got!r} != {want!r}"
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return f"{path}: keys {sorted(got)} != {sorted(want)}"
        for k in want:
            diff = _close(got[k], want[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = _close(g, w, f"{path}[{i}]")
            if diff:
                return diff
        return None
    return None if got == want else f"{path}: {got!r} != {want!r}"


def _weights(doc):
    a, b = doc["init"]["alpha"], doc["init"]["beta"]
    return a[0] ** 2 + a[1] ** 2, b[0] ** 2 + b[1] ** 2


def _invariants(doc, report) -> str | None:
    n = len(doc["iterations"])
    canonical = not any("r0" in it for it in doc["iterations"])
    w0, w1 = _weights(doc)
    m1 = next(m for m in report["marginals"] if m["register"] == "M1")
    if abs(m1["diagonal_probs"][0] - w0) > TOL or abs(m1["diagonal_probs"][1] - w1) > TOL:
        return f"M1 diagonal {m1['diagonal_probs']} != {(w0, w1)}"
    probs = report["probabilities"]
    if abs(probs["S_0"] + probs["S_1"] - 1.0) > TOL:
        return "outcome probabilities of S do not sum to 1"
    first_bit = sum(e["probability"] for label, e in report["branch_table"].items()
                    if label[0] == "0")
    if abs(first_bit - w0) > TOL:
        return f"branches with M1=0 weigh {first_bit}, expected {w0}"
    if not canonical:
        return None
    table = report["branch_table"]
    if not set(table) <= {"0" * n, "1" * n}:
        return f"canonical run has branches {sorted(table)[:4]}..."
    for label, w in (("0" * n, w0), ("1" * n, w1)):
        if abs(table.get(label, {"probability": 0.0})["probability"] - w) > TOL:
            return f"branch {label} weight differs from {w}"
    if m1["max_offdiag"] > TOL:
        return f"M1 marginal off-diagonal {m1['max_offdiag']}"
    if not report["checks"]["witness_C_M1"]["entangled"]:
        return "C and M1 not reported entangled"
    meas = report["measurement"]
    if abs(meas["probability"] - (w0, w1)[meas["outcome"]]) > TOL:
        return "measurement probability differs from the control weight"
    return None


def _oracle(doc_text, report) -> str | None:
    from branchsim import machine, report as report_mod, scenario, verify
    from branchsim.errors import BranchsimError

    sc = scenario.parse_scenario(doc_text)
    try:
        amps = verify.oracle_run(sc, compose=False)
        state = machine.StateVector(machine.build_layout(len(sc.iterations)), amps)
        want = report_mod.build_report(sc, state).to_document()
    except BranchsimError as exc:
        return f"the oracle's state cannot be reported: {exc}"
    return _close(report, want)


def check_run_output(doc_text: str, text: str) -> str | None:
    """Why a ``run`` op's stdout is wrong, or None when it is right."""
    from branchsim import report as report_mod
    from branchsim.errors import ParseError

    doc = json.loads(doc_text)
    try:
        report = report_mod.parse_report(text).to_document()
    except ParseError as exc:
        return f"report does not parse: {exc}"
    if report["scenario_name"] != doc["name"]:
        return "scenario_name differs"
    failing = [k for k, v in report["checks"].items() if v.get("pass") is False]
    if failing:
        return f"report checks fail: {failing}"
    if len(doc["iterations"]) + 3 <= ORACLE_MAX_QUBITS:
        return _oracle(doc_text, report)
    try:
        return _invariants(doc, report)
    except (KeyError, IndexError, TypeError, StopIteration) as exc:
        return f"report lacks an analysis the scenario asked for: {exc!r}"


def check_verify_output(text: str) -> str | None:
    """Why a ``verify`` op's stdout is wrong, or None when it is right."""
    verdicts = {}
    for line in text.splitlines():
        m = _VERIFY_LINE.match(line)
        if m is None:
            return f"unexpected line {line!r}"
        verdicts[m.group(1)] = m.group(2)
    if sorted(verdicts) != sorted(VERIFY_CHECKS):
        return f"checks run {sorted(verdicts)} != the {len(VERIFY_CHECKS)} expected"
    failed = [k for k, v in verdicts.items() if v != "PASS"]
    return f"checks fail: {failed}" if failed else None


def failed_ops(ops, inputs, outdir) -> tuple[int, list[str]]:
    """Count failed ops: nonzero exit, traceback, wrong or changed output."""
    reasons: dict[int, str | None] = {}
    first_sha: dict[int, str] = {}
    failed, notes = 0, []
    for op in ops:
        key = op["key"]
        if key not in reasons:
            text = (outdir / f"{key}.txt").read_text(encoding="utf-8")
            entry = inputs[key]
            if "verify_seed" in entry:
                reasons[key] = check_verify_output(text)
            else:
                reasons[key] = check_run_output(entry["text"], text)
            first_sha[key] = op["sha256"]
        why = None
        if op["rc"] != 0:
            why = f"exit code {op['rc']}"
        elif op["error"]:
            why = "traceback: " + op["error"].strip().splitlines()[-1]
        elif op["sha256"] != first_sha[key]:
            why = "stdout differs from the first run of the same input"
        elif reasons[key]:
            why = reasons[key]
        if why:
            failed += 1
            notes.append(f"input {key}{' (traced)' if op['traced'] else ''}: {why}")
    return failed, notes

