"""One-qubit gate library.

A ``GateSpec`` is checked and resolved to its read-only 2x2 matrix when
it is constructed.  The ``rx``/``ry``/``rz`` kinds follow the half-angle
convention, e.g. rx(a) = cos(a/2) I - i sin(a/2) X.  ``real_rotation``
is the plain plane rotation ((cos a, -sin a), (sin a, cos a)) used to
steer the control register in extended iterations; note it takes the
full angle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import UNITARITY_TOL, unitarity_deviation

_FIXED = {
    "identity": np.eye(2, dtype=np.complex128),
    "pauli_x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "pauli_y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "pauli_z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "hadamard": np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2),
}


def _rx(a: float) -> list:
    c, s = math.cos(a / 2), math.sin(a / 2)
    return [[c, -1j * s], [-1j * s, c]]


def _ry(a: float) -> list:
    c, s = math.cos(a / 2), math.sin(a / 2)
    return [[c, -s], [s, c]]


def _rz(a: float) -> list:
    return [[cmath.exp(-1j * a / 2), 0], [0, cmath.exp(1j * a / 2)]]


def _real_rotation(a: float) -> list:
    c, s = math.cos(a), math.sin(a)
    return [[c, -s], [s, c]]


_ROTATIONS = {"rx": _rx, "ry": _ry, "rz": _rz, "real_rotation": _real_rotation}
ANGLE_KINDS = tuple(_ROTATIONS)
KINDS = tuple(_FIXED) + ANGLE_KINDS + ("raw",)

RawMatrix = tuple[tuple[complex, complex], tuple[complex, complex]]


@dataclass(frozen=True)
class GateSpec:
    """Declarative one-qubit gate: fixed-named, rotation, or raw matrix.

    ``angle_expr`` optionally remembers the exact textual angle (e.g.
    "pi/3") so scenario files round-trip without decimal transcription.
    """

    kind: str
    angle: float | None = None
    angle_expr: str | None = None
    raw: RawMatrix | None = None
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind in _FIXED:
            if self.angle is not None:
                raise ValidationError(f"gate {self.kind!r} takes no angle")
            m = _FIXED[self.kind]  # shared by every gate of this kind
        elif self.kind in _ROTATIONS:
            if self.angle is None:
                raise ValidationError(f"gate {self.kind!r} requires an angle")
            if not math.isfinite(self.angle):
                raise ValidationError("gate angle must be finite")
            m = np.array(_ROTATIONS[self.kind](float(self.angle)), dtype=np.complex128)
        elif self.kind == "raw":
            if self.raw is None:
                raise ValidationError("raw gate requires a matrix")
            m = np.array(self.raw, dtype=np.complex128)
            if m.shape != (2, 2):
                raise ValidationError(f"raw gate must be 2x2, got {m.shape}")
            dev = unitarity_deviation(m)
            if dev > UNITARITY_TOL:
                raise ValidationError(f"raw gate is not unitary (deviation {dev:.3e})")
        else:
            raise ValidationError(f"unknown gate kind {self.kind!r}")
        m.flags.writeable = False
        object.__setattr__(self, "_matrix", m)

    @property
    def is_identity(self) -> bool:
        return self.kind == "identity"

    def matrix(self) -> np.ndarray:
        """The gate's read-only 2x2 unitary."""
        return self._matrix


IDENTITY = GateSpec("identity")
PAULI_X = GateSpec("pauli_x")


def raw_gate(matrix) -> GateSpec:
    """Wrap an explicit 2x2 unitary, given as an array or nested rows."""
    rows = np.asarray(matrix, dtype=np.complex128).tolist()
    return GateSpec("raw", raw=tuple(map(tuple, rows)))
