"""Exact dense reference for the branch-table engine.

``dense_fold`` is the dense-vector engine that the branch-table layout
replaced: 2x2 updates on axes of the ``[2] * n`` view, with one memory
slot appended per round.  It performs the same floating-point operations
as the engine, so the tests compare the two with ``np.array_equal``.
Register positions are derived here from the documented convention: C
owns the most significant bit, then M1..Mn, then S, then P.
"""

import numpy as np

from branchsim.gates import IDENTITY, PAULI_X, GateSpec


def raw_gate(matrix) -> GateSpec:
    """``GateSpec("raw", ...)`` of an explicit 2x2 matrix, given as an array or rows."""
    return GateSpec("raw", raw=tuple(map(tuple, np.asarray(matrix, np.complex128).tolist())))


def positions(n_memories: int) -> dict[str, int]:
    pos = {"C": 0, "S": n_memories + 1, "P": n_memories + 2}
    for k in range(1, n_memories + 1):
        pos[f"M{k}"] = k
    return pos


def _axis_slice(n_qubits, fixed):
    return tuple(fixed.get(axis, slice(None)) for axis in range(n_qubits))


def _dense_gate(amps, n_qubits, target, gate, control, value):
    """In-place 2x2 update of axis ``target`` where axis ``control`` reads ``value``."""
    psi = amps.reshape([2] * n_qubits)
    lo = _axis_slice(n_qubits, {control: value, target: 0})
    hi = _axis_slice(n_qubits, {control: value, target: 1})
    a0, a1 = psi[lo], psi[hi]
    new0 = gate[0, 0] * a0 + gate[0, 1] * a1
    psi[hi] = gate[1, 0] * a0 + gate[1, 1] * a1
    psi[lo] = new0


def _dense_controlled(amps, n_memories, control, target, g0, g1):
    pos = positions(n_memories)
    for value, gate in ((0, g0), (1, g1)):
        if not gate.is_identity:
            _dense_gate(amps, n_memories + 3, pos[target], gate.matrix(),
                        pos[control], value)


def dense_fold(scenario) -> np.ndarray:
    """Final amplitudes of ``scenario`` from the dense tensor-axis engine."""
    init = scenario.init
    vec_c = np.array([init.alpha, init.beta], dtype=np.complex128)
    vec_s = init.system_init.matrix() @ np.array([1, 0], dtype=np.complex128)
    vec_p = np.array([init.gamma, init.delta], dtype=np.complex128)
    amps = np.kron(np.kron(vec_c, vec_s), vec_p)
    if init.mode in ("correlated_c_to_p", "copy_c_to_p_from_zero"):
        _dense_controlled(amps, 0, "C", "P", IDENTITY, PAULI_X)
    for k, spec in enumerate(scenario.iterations, start=1):
        grown = np.zeros(2 * amps.size, dtype=np.complex128)  # M_k in |0>, before S
        grown.reshape(amps.size // 4, 2, 4)[:, 0, :] = amps.reshape(-1, 4)
        amps = grown
        for control, target, g0, g1 in (
            ("C", "S", spec.u0, spec.u1), ("C", f"M{k}", IDENTITY, PAULI_X),
            ("P", "S", spec.f0, spec.f1), (f"M{k}", "P", spec.v0, spec.v1),
        ):
            _dense_controlled(amps, k, control, target, g0, g1)
        if spec.extended:
            _dense_controlled(amps, k, "P", "C", spec.r0, spec.r1)
    return amps
