"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -rA`` or
``-s``) in addition to its assertions.  Expected values of criteria 1-4
and 8 are frozen from independent derivations.  The randomized criteria
5-7 call ``branchsim.verify``'s own checks on their own seeds, so each
check exists once: criterion 5 compares the engine with the Kronecker
oracle (100 canonical draws and three extended ones), criterion 6 with
the one-round closed form (20 draws), and criterion 7 checks marginal
diagonality and the no-cloning witness (50 draws each) and phase
blindness (60 draws).  Neither the oracle nor the closed form touches the
engine's branch table.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from branchsim import (
    InitSpec,
    branch_decompose,
    builtin_scenario,
    measure_control,
    memory_marginal,
    no_cloning_witness,
    outcome_probability,
    register_marginal,
    run,
    separability_check,
)
from branchsim.linalg import DEFAULT_TOLERANCES
from branchsim.verify import (
    _check_marginal_diagonality,
    _check_no_cloning,
    _check_oracle_equivalence,
    _check_phase_blindness,
    _check_symbolic_expansion,
    random_amplitude_pair,
)

INV_SQRT2 = 1 / math.sqrt(2)


def _verdict(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_pauli_flips_golden():
    start = time.perf_counter()
    state = run(builtin_scenario("pauli-flips"))
    elapsed = time.perf_counter() - start

    expected = np.zeros(64, dtype=complex)
    expected[0] = expected[63] = INV_SQRT2
    fid = abs(np.vdot(expected, state.amplitudes)) ** 2
    marginals = [memory_marginal(state, k) for k in (1, 2, 3)]
    ok = (
        fid >= 1 - 1e-10
        and all(m.max_offdiag <= 1e-12 for m in marginals)
        and all(abs(p - 0.5) <= 1e-10 for m in marginals for p in m.diagonal_probs)
        and elapsed < 0.1
    )
    _verdict("1 pauli-flips golden", ok)
    assert fid >= 1 - 1e-10
    for marginal in marginals:
        assert marginal.max_offdiag <= 1e-12
        assert marginal.diagonal_probs == pytest.approx([0.5, 0.5], abs=1e-10)
    assert elapsed < 0.1, f"run took {elapsed:.3f}s"


def test_criterion_2_rotations_nofeedback_golden():
    state = run(builtin_scenario("rotations-nofeedback"))
    p1 = outcome_probability(state, "S", 1)
    rho_s = register_marginal(state, {"S"})
    pur = float(np.real(np.trace(rho_s @ rho_s)))
    expected = np.zeros(64, dtype=complex)
    expected[0b000010] = -1j * INV_SQRT2  # alpha branch: -i on |1>_S
    expected[0b111111] = +1j * INV_SQRT2  # beta branch: +i on |1>_S
    entrywise = float(np.max(np.abs(state.amplitudes - expected)))
    ok = abs(p1 - 1.0) <= 1e-10 and abs(pur - 1.0) <= 1e-9 and entrywise <= 1e-10
    _verdict("2 rotations-nofeedback golden", ok)
    assert abs(p1 - 1.0) <= 1e-10
    assert abs(pur - 1.0) <= 1e-9
    assert entrywise <= 1e-10


def test_criterion_3_rotations_feedback_golden():
    state = run(builtin_scenario("rotations-feedback"))
    p1 = outcome_probability(state, "S", 1)
    closed_form = (2 + math.sqrt(2)) / 4

    table = branch_decompose(state)
    c, s = math.cos(5 * math.pi / 8), math.sin(5 * math.pi / 8)
    sub0 = table.entries["000"].substate.amplitudes  # (C,S,P) = (0,s,0)
    sub1 = table.entries["111"].substate.amplitudes  # (C,S,P) = (1,s,1)
    branch0 = np.array([sub0[0b000], sub0[0b010]])
    branch1 = np.array([sub1[0b101], sub1[0b111]])
    closed_dev = max(
        abs(branch0[0] - c), abs(branch0[1] - (-1j * s)),
        abs(branch1[0] - c), abs(branch1[1] - (+1j * s)),
    )
    printed_dev = max(
        abs(branch0[0] - (-0.3827)), abs(branch0[1] - (-0.9239j)),
        abs(branch1[0] - (-0.3827)), abs(branch1[1] - (+0.9239j)),
    )
    _, pur = separability_check(state, "S")
    ok = (
        abs(p1 - closed_form) <= 1e-9
        and closed_dev <= 1e-10
        and printed_dev <= 1e-4
        and pur < 1 - 1e-3
    )
    _verdict("3 rotations-feedback golden", ok)
    assert abs(p1 - closed_form) <= 1e-9
    assert closed_dev <= 1e-10
    assert printed_dev <= 1e-4
    assert pur < 1 - 1e-3


def test_criterion_4_reinforcement_golden():
    probs = branch_decompose(run(builtin_scenario("reinforce-two-step"))).probabilities()
    named_dev = max(
        abs(probs.get("00", 0.0) - 0.5),
        abs(probs.get("10", 0.0) - 0.25),
        abs(probs.get("11", 0.0) - 0.25),
    )

    rng = np.random.default_rng(20260809)
    random_dev = 0.0
    for _ in range(20):
        alpha, beta = random_amplitude_pair(rng)
        theta = float(rng.uniform(0, 2 * math.pi))
        scenario = replace(
            builtin_scenario("reinforce-two-step", reinforce_theta=theta),
            init=InitSpec(alpha=alpha, beta=beta),
        )
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
    ok = named_dev <= 1e-10 and random_dev <= 1e-10
    _verdict("4 reinforcement golden", ok)
    assert named_dev <= 1e-10
    assert random_dev <= 1e-10


def _run_check(check, rng) -> tuple[bool, float]:
    """(passed, deviation) of a verify check at the default tolerances."""
    dev, tolerance = check(rng, DEFAULT_TOLERANCES)
    return dev <= tolerance, dev


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
