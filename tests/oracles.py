"""Exact dense reference for the branch-table engine.

``dense_fold`` is the dense-vector engine that the branch-table layout
replaced: 2x2 updates on axes of the ``[2] * n`` view, with one memory
slot appended per round.  It performs the same floating-point operations
as the engine: it applies every pair of a round's gate array, identities
included, and each CNOT from C by moving amplitudes, not by arithmetic:
the init C->P wiring swaps P's halves, and the memory write splits each
memory string as the engine does.  So the tests compare the two bit for
bit on the engine's rows, signed zeros included.  Register positions
are derived here from the documented convention: C owns the most
significant bit, then M1..Mn, then S, then P.
"""

import numpy as np

from branchsim.gates import GateSpec


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


def _dense_controlled(amps, n_memories, control, target, pair):
    """``pair[0]``/``pair[1]`` on ``target`` where ``control`` reads 0/1."""
    pos = positions(n_memories)
    for value in (0, 1):
        _dense_gate(amps, n_memories + 3, pos[target], pair[value], pos[control], value)


def _dense_swap(amps, n_memories, target):
    """The init's CNOT from C into ``target``: its halves swapped where C reads 1."""
    n_qubits, t = n_memories + 3, positions(n_memories)[target]
    psi = amps.reshape([2] * n_qubits)
    lo, hi = (_axis_slice(n_qubits, {0: 1, t: bit}) for bit in (0, 1))
    psi[lo], psi[hi] = psi[hi].copy(), psi[lo].copy()


def _dense_write(amps, n_memories, target):
    """The write into the fresh slot ``target``, as the engine's split: where C
    reads 1 its |0> half moves to |1>, and the halves that the engine's rows
    do not hold become +0.0 (an update of zeros may have left -0.0 there)."""
    n_qubits, t = n_memories + 3, positions(n_memories)[target]
    psi = amps.reshape([2] * n_qubits)
    c0_hi, c1_lo, c1_hi = (_axis_slice(n_qubits, {0: c, t: bit})
                           for c, bit in ((0, 1), (1, 0), (1, 1)))
    psi[c1_hi] = psi[c1_lo]
    psi[c0_hi] = psi[c1_lo] = 0.0


def dense_fold(scenario) -> np.ndarray:
    """Final amplitudes of ``scenario`` from the dense tensor-axis engine."""
    init = scenario.init
    vec_c = np.array([init.alpha, init.beta], dtype=np.complex128)
    vec_s = init.system_init.matrix() @ np.array([1, 0], dtype=np.complex128)
    vec_p = np.array([init.gamma, init.delta], dtype=np.complex128)
    amps = np.kron(np.kron(vec_c, vec_s), vec_p)
    if init.mode in ("correlated_c_to_p", "copy_c_to_p_from_zero"):
        _dense_swap(amps, 0, "P")
    for k, spec in enumerate(scenario.iterations, start=1):
        grown = np.zeros(2 * amps.size, dtype=np.complex128)  # M_k in |0>, before S
        grown.reshape(amps.size // 4, 2, 4)[:, 0, :] = amps.reshape(-1, 4)
        amps = grown
        g = spec.gates
        _dense_controlled(amps, k, "C", "S", g[0:2])
        _dense_write(amps, k, f"M{k}")
        _dense_controlled(amps, k, "P", "S", g[2:4])
        _dense_controlled(amps, k, f"M{k}", "P", g[4:6])
        if spec.extended:
            _dense_controlled(amps, k, "P", "C", g[6:8])
    return amps
