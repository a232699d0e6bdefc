"""Brute-force oracles for the test suite.

Everything here goes through explicit dense matrices, np.kron chains,
and matrix-vector products; none of the engine's branch-table kernels
are involved.  Register positions are derived independently from the
documented convention: C owns the most significant bit, then M1..Mn,
then S, then P.

``dense_fold`` is the exception: it is the dense-vector engine that the
branch-table layout replaced (2x2 updates on axes of the ``[2] * n``
view, one memory slot appended per round), kept as an exact reference
because it performs the same floating-point operations.
"""

import numpy as np

I2 = np.eye(2, dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PROJ = (
    np.array([[1, 0], [0, 0]], dtype=np.complex128),
    np.array([[0, 0], [0, 1]], dtype=np.complex128),
)
E0 = np.array([1, 0], dtype=np.complex128)
E1 = np.array([0, 1], dtype=np.complex128)


def positions(n_memories: int) -> dict[str, int]:
    pos = {"C": 0, "S": n_memories + 1, "P": n_memories + 2}
    for k in range(1, n_memories + 1):
        pos[f"M{k}"] = k
    return pos


def chain_kron(factors) -> np.ndarray:
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def controlled_matrix(n_qubits: int, control_pos: int, target_pos: int,
                      g0: np.ndarray, g1: np.ndarray) -> np.ndarray:
    total = np.zeros((1 << n_qubits, 1 << n_qubits), dtype=np.complex128)
    for value, gate in ((0, g0), (1, g1)):
        factors = [I2] * n_qubits
        factors[control_pos] = PROJ[value]
        factors[target_pos] = gate
        total += chain_kron(factors)
    return total


def initial_vector(init, n_memories: int) -> np.ndarray:
    """Kron-chain initialization plus an explicit CNOT matrix for wiring."""
    pos = positions(n_memories)
    vec_s = init.system_init.matrix() @ E0
    factors = [np.array([init.alpha, init.beta], dtype=np.complex128)]
    factors += [E0] * n_memories
    factors += [vec_s, np.array([init.gamma, init.delta], dtype=np.complex128)]
    amps = chain_kron(factors)
    if init.mode in ("correlated_c_to_p", "copy_c_to_p_from_zero"):
        amps = controlled_matrix(n_memories + 3, pos["C"], pos["P"], I2, X) @ amps
    return amps


def iteration_unitary(n_memories: int, k: int, spec) -> np.ndarray:
    """Explicit global unitary of round k: (R .) V . F . CNOT . U."""
    pos = positions(n_memories)
    n = n_memories + 3
    u = controlled_matrix(n, pos["C"], pos["S"], spec.u0.matrix(), spec.u1.matrix())
    cnot = controlled_matrix(n, pos["C"], pos[f"M{k}"], I2, X)
    f = controlled_matrix(n, pos["P"], pos["S"], spec.f0.matrix(), spec.f1.matrix())
    v = controlled_matrix(n, pos[f"M{k}"], pos["P"], spec.v0.matrix(), spec.v1.matrix())
    w = v @ f @ cnot @ u
    if spec.extended:
        w = controlled_matrix(n, pos["P"], pos["C"],
                              spec.r0.matrix(), spec.r1.matrix()) @ w
    return w


def run_oracle(scenario) -> np.ndarray:
    n_memories = len(scenario.iterations)
    amps = initial_vector(scenario.init, n_memories)
    for k, spec in enumerate(scenario.iterations, start=1):
        amps = iteration_unitary(n_memories, k, spec) @ amps
    return amps


def expansion_oracle(init, spec) -> np.ndarray:
    """Closed-form one-round state for correlated initialization, written
    with the policy update's matrix elements V[j][l, q]."""
    psi = init.system_init.matrix() @ E0
    u0, u1 = spec.u0.matrix(), spec.u1.matrix()
    f0, f1 = spec.f0.matrix(), spec.f1.matrix()
    v0, v1 = spec.v0.matrix(), spec.v1.matrix()
    a, b, g, d = init.alpha, init.beta, init.gamma, init.delta
    s0, s1 = u0 @ psi, u1 @ psi
    out = a * chain_kron([E0, E0, g * v0[0, 0] * (f0 @ s0) + d * v0[0, 1] * (f1 @ s0), E0])
    out = out + a * chain_kron([E0, E0, g * v0[1, 0] * (f0 @ s0) + d * v0[1, 1] * (f1 @ s0), E1])
    out = out + b * chain_kron([E1, E1, d * v1[0, 0] * (f0 @ s1) + g * v1[0, 1] * (f1 @ s1), E0])
    out = out + b * chain_kron([E1, E1, d * v1[1, 0] * (f0 @ s1) + g * v1[1, 1] * (f1 @ s1), E1])
    return out


def haar_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pair(rng: np.random.Generator, min_weight: float = 0.05):
    w = rng.uniform(min_weight, 1.0 - min_weight)
    ta, tb = rng.uniform(0.0, 2.0 * np.pi, size=2)
    a = np.sqrt(w) * np.exp(1j * ta)
    b = np.sqrt(1.0 - w) * np.exp(1j * tb)
    return complex(a), complex(b)


# ---------------------------------------------------------------------------
# dense tensor-axis fold

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
    from branchsim.gates import IDENTITY, PAULI_X

    init = scenario.init
    vec_s = init.system_init.matrix() @ E0
    amps = chain_kron([np.array([init.alpha, init.beta], dtype=np.complex128),
                       vec_s, np.array([init.gamma, init.delta], dtype=np.complex128)])
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
