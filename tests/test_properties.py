"""Property tests over randomly drawn gates, angles, and amplitudes."""

import cmath
import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from branchsim import branch_decompose, builtin_scenario, run
from branchsim.analysis import PURITY_ONE, no_cloning_witness
from branchsim.gates import GateSpec
from branchsim.linalg import purity
from branchsim.machine import (
    InitSpec,
    IterationSpec,
    apply_controlled,
    build_layout,
    initialize,
    iterate,
    measure_control,
    partial_trace,
)
from branchsim.verify import random_canonical_scenario, random_init

from oracles import raw_gate

angles = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi,
                   allow_nan=False, allow_infinity=False)


@st.composite
def unitary2(draw):
    # ZYZ decomposition with a global phase covers all of U(2)
    a, b, c, d = (draw(angles) for _ in range(4))
    rz1 = np.diag([cmath.exp(-1j * a / 2), cmath.exp(1j * a / 2)])
    ry = np.array([[math.cos(b / 2), -math.sin(b / 2)],
                   [math.sin(b / 2), math.cos(b / 2)]])
    rz2 = np.diag([cmath.exp(-1j * c / 2), cmath.exp(1j * c / 2)])
    return cmath.exp(1j * d) * (rz1 @ ry @ rz2)


@st.composite
def amplitude_pair(draw):
    t = draw(st.floats(min_value=0.05, max_value=math.pi / 2 - 0.05))
    pa = draw(angles)
    pb = draw(angles)
    return (
        math.cos(t) * cmath.exp(1j * pa),
        math.sin(t) * cmath.exp(1j * pb),
    )


@settings(max_examples=30, deadline=None)
@given(amplitude_pair(), unitary2(), unitary2())
def test_controlled_application_preserves_norm(pair, g0, g1):
    layout = build_layout(1)
    state = initialize(InitSpec(alpha=pair[0], beta=pair[1]), layout)
    out = apply_controlled(state, "C", "S", raw_gate(g0), raw_gate(g1))
    assert abs(out.norm() - 1.0) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(amplitude_pair(), amplitude_pair(), unitary2(), unitary2(), unitary2(),
       unitary2())
def test_iteration_preserves_norm_and_marginal_trace(cpair, ppair, u0, u1, v0, v1):
    layout = build_layout(0)
    state = initialize(
        InitSpec(alpha=cpair[0], beta=cpair[1], gamma=ppair[0], delta=ppair[1]),
        layout,
    )
    spec = IterationSpec(u0=raw_gate(u0), u1=raw_gate(u1),
                         v0=raw_gate(v0), v1=raw_gate(v1))
    out = iterate(state, 1, spec)
    assert abs(out.norm() - 1.0) <= 1e-10
    for keep in ({"C"}, {"M1"}, {"S", "P"}):
        rho = partial_trace(out, keep)
        assert abs(complex(np.trace(rho)) - 1.0) <= 1e-10
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(amplitude_pair(), amplitude_pair())
def test_product_initialization_has_pure_marginals(cpair, ppair):
    layout = build_layout(1)
    state = initialize(
        InitSpec(alpha=cpair[0], beta=cpair[1], gamma=ppair[0], delta=ppair[1]),
        layout,
    )
    for reg in ("C", "M1", "S", "P"):
        assert purity(partial_trace(state, {reg})) >= 1 - 1e-9


@settings(max_examples=20, deadline=None)
@given(amplitude_pair(), st.integers(min_value=0, max_value=2**32 - 1))
def test_measurement_probabilities_sum_to_one(pair, seed):
    layout = build_layout(0)
    state = initialize(InitSpec(alpha=pair[0], beta=pair[1]), layout)
    state = iterate(state, 1, IterationSpec())
    _, c0, p0 = measure_control(state, seed, force=0)
    _, c1, p1 = measure_control(state, seed, force=1)
    assert abs(p0 + p1 - 1.0) <= 1e-10
    assert abs(np.vdot(c0.amplitudes, c1.amplitudes)) <= 1e-10
    outcome, _, prob = measure_control(state, seed)
    assert prob == (p0, p1)[outcome]


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False))
def test_reinforcement_weights_follow_closed_form(theta):
    base = builtin_scenario("reinforce-two-step")
    steered = replace(base.iterations[0], r1=GateSpec("real_rotation", angle=theta))
    state = run(replace(base, iterations=(steered, base.iterations[1])))
    probs = branch_decompose(state).probabilities()
    assert abs(probs.get("00", 0.0) - 0.5) <= 1e-10
    assert abs(probs.get("10", 0.0) - 0.5 * math.sin(theta) ** 2) <= 1e-10
    assert abs(probs.get("11", 0.0) - 0.5 * math.cos(theta) ** 2) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=3))
def test_witness_reads_a_product_uncorrelated_and_a_record_correlated(seed, rounds):
    # the product half is what verify's property_no_cloning does not check:
    # a witness answering "correlated" for every pair would pass it
    rng = np.random.default_rng(seed)
    state = initialize(random_init(rng, "uncorrelated"), build_layout(0))
    entangled, fid = no_cloning_witness(state, "S", "P")
    assert not entangled and fid >= PURITY_ONE
    state = run(random_canonical_scenario(rng, rounds))
    entangled, _ = no_cloning_witness(state, "C", "M1")
    assert entangled
