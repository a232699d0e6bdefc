"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -rA`` or
``-s``) in addition to its assertions.  Every criterion but 8 calls
``branchsim.verify``'s own checks, so each check exists once, and adds
only what the check does not cover.  Criteria 1-4 run the golden checks,
whose expected values are frozen from independent derivations; criterion
1 adds a time bound, 3 the printed four-digit amplitudes and 4 twenty
random amplitudes and thetas.  The randomized criteria 5-7 run on their
own seeds: criterion 5 compares the engine with the Kronecker oracle (100
canonical draws and four extended ones), criterion 6 with the n-round
branch-history closed form (20 draws of 1-7 rounds, canonical and
extended in turn), and criterion 7 checks marginal diagonality and
the no-cloning witness (50 draws each) and phase blindness (60 draws).
Neither the oracle nor the closed form touches the engine's branch table.
"""

import math
import time
from dataclasses import replace

import numpy as np

from branchsim import branch_decompose, builtin_scenario, run
from branchsim.gates import GateSpec
from branchsim.machine import InitSpec, measure_control
from branchsim.verify import (
    _check_golden_pauli_flips,
    _check_golden_reinforce_two_step,
    _check_golden_rotations_feedback,
    _check_golden_rotations_nofeedback,
    _check_marginal_diagonality,
    _check_no_cloning,
    _check_oracle_equivalence,
    _check_phase_blindness,
    _check_symbolic_expansion,
    random_amplitude_pair,
)


def _verdict(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")


def _run_check(check, rng) -> tuple[bool, float]:
    """(passed, deviation) of a verify check at its fixed tolerance."""
    result = check(rng)
    return result.passed, result.deviation


def test_criterion_1_pauli_flips_golden():
    # the check covers GHZ fidelity and balanced diagonal memory marginals
    start = time.perf_counter()
    passed, dev = _run_check(_check_golden_pauli_flips, None)
    elapsed = time.perf_counter() - start
    _verdict("1 pauli-flips golden", passed and elapsed < 0.1)
    assert passed, dev
    assert elapsed < 0.1, f"check took {elapsed:.3f}s"


def test_criterion_2_rotations_nofeedback_golden():
    passed, dev = _run_check(_check_golden_rotations_nofeedback, None)
    _verdict("2 rotations-nofeedback golden", passed)
    assert passed, dev


def test_criterion_3_rotations_feedback_golden():
    # the check covers the closed forms and the mixed S; the printed
    # four-digit amplitudes are checked here
    passed, dev = _run_check(_check_golden_rotations_feedback, None)
    table = branch_decompose(run(builtin_scenario("rotations-feedback")))
    assert table.entries == ("000", "111")
    sub0, sub1 = table.substates
    printed_dev = max(
        abs(sub0[0b000] - (-0.3827)), abs(sub0[0b010] - (-0.9239j)),
        abs(sub1[0b101] - (-0.3827)), abs(sub1[0b111] - (+0.9239j)),
    )
    _verdict("3 rotations-feedback golden", passed and printed_dev <= 1e-4)
    assert passed, dev
    assert printed_dev <= 1e-4


def test_criterion_4_reinforcement_golden():
    # the check covers the built-in's weights; 20 random thetas are drawn here
    passed, dev = _run_check(_check_golden_reinforce_two_step, None)
    rng = np.random.default_rng(20260809)
    random_dev = 0.0
    base = builtin_scenario("reinforce-two-step")
    for _ in range(20):
        alpha, beta = random_amplitude_pair(rng)
        theta = float(rng.uniform(0, 2 * math.pi))
        steered = replace(base.iterations[0], r1=GateSpec("real_rotation", angle=theta))
        scenario = replace(base, init=InitSpec(alpha=alpha, beta=beta),
                           iterations=(steered, base.iterations[1]))
        got = branch_decompose(run(scenario)).probabilities()
        wa, wb = abs(alpha) ** 2, abs(beta) ** 2
        expected = {
            "00": wa,
            "10": wb * math.sin(theta) ** 2,
            "11": wb * math.cos(theta) ** 2,
        }
        for label, p in expected.items():
            random_dev = max(random_dev, abs(got.get(label, 0.0) - p))
        random_dev = max(random_dev, abs(sum(got.values()) - 1.0))
    _verdict("4 reinforcement golden", passed and random_dev <= 1e-10)
    assert passed, dev
    assert random_dev <= 1e-10


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    passed, dev = _run_check(_check_oracle_equivalence, np.random.default_rng(55))
    elapsed = time.perf_counter() - start
    _verdict("5 oracle equivalence", passed and elapsed < 30)
    assert passed, dev
    assert elapsed < 30, f"took {elapsed:.1f}s"


def test_criterion_6_one_iteration_expansion():
    passed, dev = _run_check(_check_symbolic_expansion, np.random.default_rng(66))
    _verdict("6 one-iteration expansion", passed)
    assert passed, dev


def test_criterion_7_classicality_and_no_cloning():
    rng = np.random.default_rng(77)
    # phase blindness draws 20 trials a call: three calls give 60
    checks = [_check_marginal_diagonality, _check_no_cloning]
    checks += [_check_phase_blindness] * 3
    results = {f"{check.__name__} #{i}": _run_check(check, rng)
               for i, check in enumerate(checks)}
    ok = all(passed for passed, _ in results.values())
    _verdict("7 classicality / no-cloning", ok)
    assert ok, results


def test_criterion_8_measurement_collapse():
    state = run(builtin_scenario("pauli-flips"))
    out0, collapsed0, p0 = measure_control(state, 0, force=0)
    out1, collapsed1, p1 = measure_control(state, 0, force=1)
    expected0 = np.zeros(64, dtype=complex)
    expected0[0] = 1.0
    expected1 = np.zeros(64, dtype=complex)
    expected1[63] = 1.0
    dev = max(
        abs(p0 - 0.5), abs(p1 - 0.5),
        float(np.max(np.abs(collapsed0.amplitudes - expected0))),
        float(np.max(np.abs(collapsed1.amplitudes - expected1))),
        float(abs(np.vdot(collapsed0.amplitudes, collapsed1.amplitudes))),
    )
    ok = dev <= 1e-12 and (out0, out1) == (0, 1)
    _verdict("8 measurement collapse", ok)
    assert (out0, out1) == (0, 1)
    assert dev <= 1e-12
