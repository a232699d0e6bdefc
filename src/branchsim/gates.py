"""One-qubit gate library.

``rx``/``ry``/``rz`` follow the half-angle convention, e.g.
rx(a) = cos(a/2) I - i sin(a/2) X.  ``real_rotation(a)`` is the plain
plane rotation ((cos a, -sin a), (sin a, cos a)) used to steer the
control register in extended iterations; note it takes the full angle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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
ANGLE_KINDS = ("rx", "ry", "rz", "real_rotation")
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

    def __post_init__(self):
        if self.kind in _FIXED:
            if self.angle is not None:
                raise ValidationError(f"gate {self.kind!r} takes no angle")
        elif self.kind in ANGLE_KINDS:
            if self.angle is None:
                raise ValidationError(f"gate {self.kind!r} requires an angle")
            if not math.isfinite(self.angle):
                raise ValidationError("gate angle must be finite")
        elif self.kind == "raw":
            if self.raw is None:
                raise ValidationError("raw gate requires a matrix")
        else:
            raise ValidationError(f"unknown gate kind {self.kind!r}")

    @property
    def is_identity(self) -> bool:
        return self.kind == "identity"

    def matrix(self) -> np.ndarray:
        """Resolve to a read-only 2x2 unitary; raw matrices are unitarity-checked.

        The engine asks for a gate's matrix at every application, so the
        first result (and its check) is kept on the instance.
        """
        m = self.__dict__.get("_matrix")
        if m is None:
            m = self._resolve()
            m.flags.writeable = False
            object.__setattr__(self, "_matrix", m)
        return m

    def _resolve(self) -> np.ndarray:
        if self.kind in _FIXED:
            return _FIXED[self.kind].copy()
        if self.kind == "raw":
            m = np.array(self.raw, dtype=np.complex128)
            if m.shape != (2, 2):
                raise ValidationError(f"raw gate must be 2x2, got {m.shape}")
            dev = unitarity_deviation(m)
            if dev > UNITARITY_TOL:
                raise ValidationError(f"raw gate is not unitary (deviation {dev:.3e})")
            return m
        a = float(self.angle)
        if self.kind == "rx":
            c, s = math.cos(a / 2), math.sin(a / 2)
            return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
        if self.kind == "ry":
            c, s = math.cos(a / 2), math.sin(a / 2)
            return np.array([[c, -s], [s, c]], dtype=np.complex128)
        if self.kind == "rz":
            return np.array(
                [[cmath.exp(-1j * a / 2), 0], [0, cmath.exp(1j * a / 2)]],
                dtype=np.complex128,
            )
        # real_rotation: full angle, no halving
        c, s = math.cos(a), math.sin(a)
        return np.array([[c, -s], [s, c]], dtype=np.complex128)


IDENTITY = GateSpec("identity")
PAULI_X = GateSpec("pauli_x")
PAULI_Y = GateSpec("pauli_y")
PAULI_Z = GateSpec("pauli_z")
HADAMARD = GateSpec("hadamard")


def rx(angle: float, expr: str | None = None) -> GateSpec:
    return GateSpec("rx", angle=angle, angle_expr=expr)


def ry(angle: float, expr: str | None = None) -> GateSpec:
    return GateSpec("ry", angle=angle, angle_expr=expr)


def rz(angle: float, expr: str | None = None) -> GateSpec:
    return GateSpec("rz", angle=angle, angle_expr=expr)


def real_rotation(angle: float, expr: str | None = None) -> GateSpec:
    return GateSpec("real_rotation", angle=angle, angle_expr=expr)


def raw_gate(matrix) -> GateSpec:
    """Wrap an explicit 2x2 unitary; validates immediately."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (2, 2):
        raise ValidationError(f"raw gate must be 2x2, got {m.shape}")
    spec = GateSpec(
        "raw",
        raw=(
            (complex(m[0, 0]), complex(m[0, 1])),
            (complex(m[1, 0]), complex(m[1, 1])),
        ),
    )
    spec.matrix()
    return spec
