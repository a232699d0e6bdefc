"""Seeded generation of the scenario documents each workload feeds the CLI.

The draws are made here with numpy's Philox generator rather than through
``branchsim.verify``'s random helpers, so a change to the program cannot
change what the benchmark measures: the same ``(workload, seed)`` always
yields byte-identical documents.  Documents follow the public scenario
schema (see the README's "Scenario documents").
"""

from __future__ import annotations

import math

import numpy as np

# Distinct inputs per workload; ops cycle through them, so every input
# after the first pass is a repeat whose report must be byte-identical.
POOL_SIZE = {"canonical-deep": 2, "extended-wide": 3, "many-small": 120, "verify": 2}

# Inputs the traced run replays once untraced and once traced.  Fixed, so
# that the traced run's counts repeat exactly.
TRACE_SET = {"canonical-deep": 1, "extended-wide": 2, "many-small": 120, "verify": 2}

DEEP_ROUNDS = 17  # 20 qubits, the engine's cap
WIDE_ROUNDS = 14  # 17 qubits
SMALL_ROUNDS = (1, 5)  # 4 to 8 qubits

# The analyses of both large workloads: every kind, on registers whose
# expected values follow from the scenario (see checks.py).
LARGE_ANALYSES = [
    "branches",
    {"marginal": "M1"},
    {"marginal": "S"},
    {"outcome": "S"},
    {"separability": "S"},
    {"witness": ["C", "M1"]},
]

INIT_MODES = ("uncorrelated", "correlated_c_to_p", "copy_c_to_p_from_zero")
FIXED_GATES = ("identity", "pauli_x", "pauli_y", "pauli_z", "hadamard")
ANGLE_GATES = ("rx", "ry", "rz", "real_rotation")


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def haar_gate(rng: np.random.Generator) -> dict:
    """A Haar-random 2x2 unitary as a raw gate."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    return {"raw": [[_pair(u[i, j]) for j in range(2)] for i in range(2)]}


def amplitude_pair(rng: np.random.Generator, min_weight: float = 0.05):
    """Normalized (a, b) with |a|^2 bounded away from 0 and 1."""
    w = rng.uniform(min_weight, 1.0 - min_weight)
    pa, pb = rng.uniform(0.0, 2.0 * math.pi, size=2)
    return (
        [math.sqrt(w) * math.cos(pa), math.sqrt(w) * math.sin(pa)],
        [math.sqrt(1 - w) * math.cos(pb), math.sqrt(1 - w) * math.sin(pb)],
    )


def random_init(rng: np.random.Generator, system_gate) -> dict:
    alpha, beta = amplitude_pair(rng)
    mode = INIT_MODES[int(rng.integers(0, 3))]
    gamma, delta = (1.0, 0.0) if mode == INIT_MODES[2] else amplitude_pair(rng)
    return {"alpha": alpha, "beta": beta, "gamma": gamma, "delta": delta,
            "mode": mode, "system_init": system_gate(rng)}


def large_scenario(rng: np.random.Generator, name: str, rounds: int,
                   extended: bool) -> dict:
    """Haar gates in every slot: the dense kernels always do full work."""
    slots = ("u0", "u1", "f0", "f1", "v0", "v1") + (("r0", "r1") if extended else ())
    return {
        "name": name,
        "init": random_init(rng, haar_gate),
        "iterations": [{s: haar_gate(rng) for s in slots} for _ in range(rounds)],
        "analyses": LARGE_ANALYSES,
        "measure": {"seed": int(rng.integers(0, 2**31))},
    }


def mixed_gate(rng: np.random.Generator) -> dict:
    """Raw, fixed-named, exact pi-fraction or decimal-angle gate."""
    r = rng.random()
    if r < 0.5:
        return haar_gate(rng)
    if r < 0.7:
        return {"named": FIXED_GATES[int(rng.integers(0, len(FIXED_GATES)))]}
    kind = ANGLE_GATES[int(rng.integers(0, len(ANGLE_GATES)))]
    if r < 0.85:
        sign = "-" if rng.random() < 0.5 else ""
        angle = f"{sign}{int(rng.integers(1, 8))}*pi/{int(rng.integers(1, 13))}"
    else:
        angle = float(rng.uniform(-math.pi, math.pi))
    return {"named": kind, "angle": angle}


def small_scenario(rng: np.random.Generator, name: str, rounds: int,
                   extended: bool) -> dict:
    """Mixed gates, omitted slots, every analysis kind and a measurement."""
    iterations = []
    for _ in range(rounds):
        it = {"u0": mixed_gate(rng), "u1": mixed_gate(rng)}
        for slot in ("f0", "f1", "v0", "v1"):
            if rng.random() < 0.7:  # omitted slots default to identity
                it[slot] = mixed_gate(rng)
        if extended:
            it["r0"], it["r1"] = mixed_gate(rng), mixed_gate(rng)
        iterations.append(it)
    registers = ["C", "S", "P"] + [f"M{k}" for k in range(1, rounds + 1)]

    def register():
        return registers[int(rng.integers(0, len(registers)))]

    a, b = rng.choice(len(registers), size=2, replace=False)
    analyses = ["branches", {"marginal": register()}, {"outcome": register()},
                {"separability": register()},
                {"witness": [registers[int(a)], registers[int(b)]]}]
    return {"name": name, "init": random_init(rng, mixed_gate),
            "iterations": iterations, "analyses": analyses,
            "measure": {"seed": int(rng.integers(0, 2**31))}}


def build(workload: str, seed: int) -> list[dict]:
    """The workload's distinct inputs: scenario documents or verify seeds.

    Each entry is ``{"qubits": n, "doc": {...}}`` for a run op, or
    ``{"verify_seed": s}`` for a verify op.
    """
    if workload not in POOL_SIZE:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.Generator(np.random.Philox(seed))
    entries = []
    for i in range(POOL_SIZE[workload]):
        name = f"{workload}-{seed}-{i}"
        if workload == "verify":
            entries.append({"verify_seed": int(rng.integers(0, 2**31))})
            continue
        if workload == "canonical-deep":
            doc = large_scenario(rng, name, DEEP_ROUNDS, extended=False)
        elif workload == "extended-wide":
            doc = large_scenario(rng, name, WIDE_ROUNDS, extended=True)
        else:  # every size and round kind equally often, whatever the seed
            rounds = SMALL_ROUNDS[0] + i % (SMALL_ROUNDS[1] - SMALL_ROUNDS[0] + 1)
            doc = small_scenario(rng, name, rounds, extended=bool(i // 5 % 2))
        entries.append({"qubits": len(doc["iterations"]) + 3, "doc": doc})
    return entries
