"""One-qubit gate library and the raw-gate check.

A ``GateSpec`` is a gate as written, and it holds only the fields its
kind uses: none for a fixed gate, ``angle`` for a rotation, ``raw`` for
a raw matrix.  Its fields are checked when it is constructed, and it
holds no array: ``matrix()`` builds the 2x2 unitary from the library,
or from ``raw``, on each call.  An angle is kept as written, radians or
an exact string such as "pi/3" or "-5*pi/4"; ``radians`` is the one
place that evaluates it.

A raw matrix is held to one rule, ``check_unitary``: finite entries, and
``max |m†m - I|`` (``linalg.unitarity_deviations``) at most
``UNITARITY_TOL``.  It checks a stack of gates in one numpy pass and
words the first failure from the same number it compared.  A scenario
document's raw round gates are one stack, and a raw ``GateSpec`` checks
itself as a stack of one.

The ``rx``/``ry``/``rz`` kinds follow the half-angle convention, e.g.
rx(a) = cos(a/2) I - i sin(a/2) X.  ``real_rotation`` is the plain plane
rotation ((cos a, -sin a), (sin a, cos a)) used to steer the control
register in extended iterations; note it takes the full angle.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import UNITARITY_TOL, unitarity_deviations

_FIXED = {  # read-only, shared by every gate of its kind
    "identity": np.eye(2, dtype=np.complex128),
    "pauli_x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "pauli_y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "pauli_z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "hadamard": np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2),
}
for _m in _FIXED.values():
    _m.flags.writeable = False


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


def check_unitary(matrices: np.ndarray, path=None) -> None:
    """Raise ``ValidationError`` for the first gate of an ``(n, 2, 2)`` complex
    stack that is not a finite unitary within ``UNITARITY_TOL``, as
    ``"{path(i)}: {message}"`` when ``path`` is given."""
    dev = unitarity_deviations(matrices)
    failing = np.flatnonzero(dev > UNITARITY_TOL)
    if failing.size:
        i = failing[0]
        message = (f"raw gate is not unitary (deviation {dev[i]:.3e})"
                   if np.isfinite(matrices[i]).all() else "matrix contains non-finite entries")
        raise ValidationError(message if path is None else f"{path(i)}: {message}")


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
    """Declarative one-qubit gate as written: fixed-named, rotation, or raw matrix."""

    kind: str
    angle: float | str | None = None
    raw: RawMatrix | None = None

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
        try:
            if rotation and not math.isfinite(radians(self.angle)):
                raise ValidationError("gate angle must be finite")
            if raw:
                m = np.array(self.raw)
                if m.dtype.kind not in "biufc":  # a string, None, or an int too large for numpy
                    raise TypeError
                if m.shape != (2, 2):
                    raise ValidationError(f"raw gate must be 2x2, got {m.shape}")
                check_unitary(m.astype(np.complex128)[None])
        except (TypeError, ValueError, OverflowError) as exc:  # a wrong type, or too large
            raise ValidationError(
                "gate angle must be a float or an angle expression" if rotation
                else "raw gate must be a 2x2 matrix of complex numbers") from exc

    @property
    def is_identity(self) -> bool:
        return self.kind == "identity"

    def matrix(self) -> np.ndarray:
        """The gate's 2x2 unitary, built on each call; a fixed kind's is shared
        and read-only."""
        if self.kind in _FIXED:
            return _FIXED[self.kind]
        if self.kind == "raw":
            return np.array(self.raw, dtype=np.complex128)
        return np.array(_ROTATIONS[self.kind](radians(self.angle)), dtype=np.complex128)


IDENTITY = GateSpec("identity")
PAULI_X = GateSpec("pauli_x")
