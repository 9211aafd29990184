"""The metric core of Galilean 3-space.

The scalar product is degenerate: for vectors with a nonzero first
component it only sees the first components, while vectors with first
component zero (isotropic vectors) carry an ordinary Euclidean product on
their yz parts.  The case split is exact on paper; in floating point we
tag a vector isotropic when |x| <= ISO_TOL.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

from .errors import G3Error

ISO_TOL = 1e-12
UNIT_TOL = 1e-9


@dataclass(frozen=True)
class GVec3:
    """A vector (x, y, z); a component that is not a real number is a
    ValueError."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ValueError(f"GVec3 component {name} must be a real number, "
                                 f"got {value!r}")

    @property
    def is_isotropic(self) -> bool:
        return abs(self.x) <= ISO_TOL

    @property
    def kind(self) -> str:
        return "isotropic" if self.is_isotropic else "non-isotropic"

    def __add__(self, other: "GVec3") -> "GVec3":
        return GVec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "GVec3") -> "GVec3":
        return GVec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "GVec3":
        return GVec3(-self.x, -self.y, -self.z)

    def __mul__(self, k: float) -> "GVec3":
        return GVec3(self.x * k, self.y * k, self.z * k)

    __rmul__ = __mul__

    def to_list(self) -> list[float]:
        return [self.x, self.y, self.z]

    @classmethod
    def from_seq(cls, seq) -> "GVec3":
        x, y, z = (float(v) for v in seq)
        return cls(x, y, z)


def gdot(a: GVec3, b: GVec3) -> float:
    """Galilean scalar product: x1*x2 when either first component is
    nonzero, else the Euclidean product of the yz parts."""
    if not a.is_isotropic or not b.is_isotropic:
        return a.x * b.x
    return a.y * b.y + a.z * b.z


def gnorm(a: GVec3) -> float:
    if not a.is_isotropic:
        return abs(a.x)
    return math.hypot(a.y, a.z)


def gcross(a: GVec3, b: GVec3) -> GVec3:
    """Galilean cross product; the result is always isotropic."""
    return GVec3(0.0, a.z * b.x - a.x * b.z, a.x * b.y - a.y * b.x)


def yz_norm(a: GVec3) -> float:
    return math.hypot(a.y, a.z)


class AngleKind(Enum):
    BETWEEN_NON_ISOTROPIC = "between-non-isotropic"
    NON_ISOTROPIC_VS_ISOTROPIC = "non-isotropic-vs-isotropic"
    BETWEEN_ISOTROPIC = "between-isotropic"


@dataclass(frozen=True)
class AngleMeasure:
    """A tagged angle measure.

    Only the between-isotropic kind is an actual Euclidean angle in
    radians; the other two are Galilean measures (a distance-like spread
    and a slope-like projection) and must not be fed to trig functions.
    """

    value: float
    kind: AngleKind


def _require_unit_non_isotropic(v: GVec3, which: str) -> None:
    if abs(v.x - 1.0) > UNIT_TOL:
        raise G3Error(
            f"{which} must be a unit non-isotropic vector (first component 1), got x={v.x!r}")


def angle(a: GVec3, b: GVec3) -> AngleMeasure:
    """Angle measure between two vectors, dispatching on isotropy.

    Both non-isotropic (unit, first component 1):
        sqrt((b2-a2)^2 + (b3-a3)^2)
    Exactly one isotropic (the non-isotropic one unit):
        (x2*y2 + x3*y3) / sqrt(y2^2 + y3^2)  with y the isotropic one
    Both isotropic (nonzero):
        the Euclidean angle between the yz parts, in radians.
    """
    a_iso, b_iso = a.is_isotropic, b.is_isotropic
    if not a_iso and not b_iso:
        _require_unit_non_isotropic(a, "first argument")
        _require_unit_non_isotropic(b, "second argument")
        return AngleMeasure(math.hypot(b.y - a.y, b.z - a.z),
                            AngleKind.BETWEEN_NON_ISOTROPIC)
    if a_iso and b_iso:
        na, nb = yz_norm(a), yz_norm(b)
        if na == 0.0 or nb == 0.0:
            raise G3Error("angle between isotropic vectors requires both nonzero")
        c = (a.y * b.y + a.z * b.z) / (na * nb)
        return AngleMeasure(math.acos(max(-1.0, min(1.0, c))),
                            AngleKind.BETWEEN_ISOTROPIC)
    iso, non = (a, b) if a_iso else (b, a)
    _require_unit_non_isotropic(non, "non-isotropic argument")
    niso = yz_norm(iso)
    if niso == 0.0:
        raise G3Error("isotropic argument must be nonzero")
    return AngleMeasure((non.y * iso.y + non.z * iso.z) / niso,
                        AngleKind.NON_ISOTROPIC_VS_ISOTROPIC)


def normalize_axis(d: GVec3) -> GVec3:
    """Scale to the unit convention: isotropic vectors to Euclidean yz-norm 1,
    non-isotropic vectors to first component exactly 1."""
    if not all(math.isfinite(c) for c in (d.x, d.y, d.z)):
        raise G3Error(f"cannot normalize a vector with a non-finite component: "
                      f"({d.x:g}, {d.y:g}, {d.z:g})")
    if d.is_isotropic:
        n = yz_norm(d)
        if n == 0.0:
            raise G3Error("cannot normalize the zero vector")
        return GVec3(0.0, d.y / n, d.z / n)
    return GVec3(1.0, d.y / d.x, d.z / d.x)


def is_unit_axis(d: GVec3) -> bool:
    if d.is_isotropic:
        return abs(yz_norm(d) - 1.0) <= UNIT_TOL
    return abs(d.x - 1.0) <= UNIT_TOL


@dataclass(frozen=True)
class GalileanMotion:
    """A motion of G3 (six parameters).

        x' = a + x
        y' = b + c1*x + y cos(phi) + z sin(phi)
        z' = d0 + e1*x - y sin(phi) + z cos(phi)

    The shear and translation letters are named c1, d0, e1 so they cannot
    be confused with the isotropic-circle radius c and the axis d.
    """

    a: float = 0.0
    b: float = 0.0
    c1: float = 0.0
    d0: float = 0.0
    e1: float = 0.0
    phi: float = 0.0

    @classmethod
    def identity(cls) -> "GalileanMotion":
        return cls()

    def compose(self, other: "GalileanMotion") -> "GalileanMotion":
        """The motion applying `other` first, then self."""
        cp, sp = math.cos(self.phi), math.sin(self.phi)
        return GalileanMotion(
            a=self.a + other.a,
            b=self.b + self.c1 * other.a + other.b * cp + other.d0 * sp,
            c1=self.c1 + other.c1 * cp + other.e1 * sp,
            d0=self.d0 + self.e1 * other.a - other.b * sp + other.d0 * cp,
            e1=self.e1 - other.c1 * sp + other.e1 * cp,
            phi=self.phi + other.phi,
        )


def apply_motion(m: GalileanMotion, p: GVec3, as_direction: bool = False) -> GVec3:
    """Apply a motion to a point, or to a direction (translations dropped)."""
    cp, sp = math.cos(m.phi), math.sin(m.phi)
    x = p.x if as_direction else m.a + p.x
    y = m.c1 * p.x + p.y * cp + p.z * sp
    z = m.e1 * p.x - p.y * sp + p.z * cp
    if not as_direction:
        y += m.b
        z += m.d0
    return GVec3(x, y, z)
