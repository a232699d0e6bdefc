"""One-qubit gate library.

A ``GateSpec`` is checked and resolved to its read-only 2x2 matrix when
it is constructed, and it holds only the fields its kind uses: none for
a fixed gate, ``angle`` for a rotation, ``raw`` for a raw matrix.  An
angle is kept as written, radians or an exact string such as "pi/3" or
"-5*pi/4"; ``radians`` is the one place that evaluates it.

The ``rx``/``ry``/``rz`` kinds follow the half-angle convention, e.g.
rx(a) = cos(a/2) I - i sin(a/2) X.  ``real_rotation`` is the plain plane
rotation ((cos a, -sin a), (sin a, cos a)) used to steer the control
register in extended iterations; note it takes the full angle.
"""

from __future__ import annotations

import cmath
import math
import re
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

_ANGLE_RE = re.compile(r"^(-?)(?:(\d+)\*)?pi(?:/([1-9]\d*))?$")


def radians(angle: float | str) -> float:
    """A number as a float, or an exact 'M*pi/N' string (optionally negated,
    spaces ignored) evaluated as sign * M * pi / N."""
    if not isinstance(angle, str):
        return float(angle)
    m = _ANGLE_RE.match(angle.replace(" ", ""))
    if not m:
        raise ValidationError(f"bad angle expression {angle!r}")
    sign = -1.0 if m.group(1) else 1.0
    mult = float(m.group(2)) if m.group(2) else 1.0
    div = float(m.group(3)) if m.group(3) else 1.0
    return sign * mult * math.pi / div


@dataclass(frozen=True)
class GateSpec:
    """Declarative one-qubit gate: fixed-named, rotation, or raw matrix."""

    kind: str
    angle: float | str | None = None
    raw: RawMatrix | None = None
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind = self.kind
        rotation, raw = kind in _ROTATIONS, kind == "raw"
        if not (rotation or raw or kind in _FIXED):
            raise ValidationError(f"unknown gate kind {kind!r}")
        if (self.angle is None) == rotation:
            need = "requires an" if rotation else "takes no"
            raise ValidationError(f"gate {kind!r} {need} angle")
        if (self.raw is None) == raw:
            need = "requires a" if raw else "takes no"
            raise ValidationError(f"gate {kind!r} {need} raw matrix")
        if rotation:
            angle = radians(self.angle)
            if not math.isfinite(angle):
                raise ValidationError("gate angle must be finite")
            m = np.array(_ROTATIONS[kind](angle), dtype=np.complex128)
        elif raw:
            m = np.array(self.raw, dtype=np.complex128)
            if m.shape != (2, 2):
                raise ValidationError(f"raw gate must be 2x2, got {m.shape}")
            dev = unitarity_deviation(m)
            if dev > UNITARITY_TOL:
                raise ValidationError(f"raw gate is not unitary (deviation {dev:.3e})")
        else:
            m = _FIXED[kind]  # shared by every gate of this kind
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
