import math

import numpy as np
import pytest

from branchsim.errors import ValidationError
from branchsim.gates import (
    HADAMARD,
    IDENTITY,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    GateSpec,
    raw_gate,
    real_rotation,
    rx,
    ry,
    rz,
)
from branchsim.linalg import UNITARITY_TOL, unitarity_deviation


def test_rx_convention_matches_half_angle_form():
    # rx(a) = cos(a/2) I - i sin(a/2) X
    a = 0.83
    expected = math.cos(a / 2) * np.eye(2) - 1j * math.sin(a / 2) * PAULI_X.matrix()
    np.testing.assert_allclose(rx(a).matrix(), expected, atol=1e-15)


def test_rx_pi_sends_zero_to_minus_i_one():
    out = rx(math.pi).matrix() @ np.array([1, 0])
    np.testing.assert_allclose(out, [0, -1j], atol=1e-15)
    out = rx(-math.pi).matrix() @ np.array([1, 0])
    np.testing.assert_allclose(out, [0, +1j], atol=1e-15)


def test_real_rotation_uses_full_angle():
    theta = 0.61
    m = real_rotation(theta).matrix()
    expected = [[math.cos(theta), -math.sin(theta)],
                [math.sin(theta), math.cos(theta)]]
    np.testing.assert_allclose(m, expected, atol=1e-15)
    # on |1> the column reads (-sin, cos)
    np.testing.assert_allclose(m @ [0, 1], [-math.sin(theta), math.cos(theta)])


@pytest.mark.parametrize(
    "gate",
    [IDENTITY, PAULI_X, PAULI_Y, PAULI_Z, HADAMARD,
     rx(0.37), ry(1.1), rz(-2.0), real_rotation(0.25)],
)
def test_all_library_gates_are_unitary(gate: GateSpec):
    assert unitarity_deviation(gate.matrix()) <= UNITARITY_TOL


def test_raw_gate_round_trip():
    m = rz(0.4).matrix()
    np.testing.assert_allclose(raw_gate(m).matrix(), m, atol=1e-15)


def test_raw_gate_rejects_non_unitary():
    with pytest.raises(ValidationError, match="not unitary"):
        raw_gate([[1, 0], [0, 2]])


def test_gate_spec_field_validation():
    with pytest.raises(ValidationError):
        GateSpec("pauli_x", angle=0.3)
    with pytest.raises(ValidationError):
        GateSpec("rx")
    with pytest.raises(ValidationError):
        GateSpec("rx", angle=math.inf)
    with pytest.raises(ValidationError):
        GateSpec("bogus")
    with pytest.raises(ValidationError):
        GateSpec("raw")
