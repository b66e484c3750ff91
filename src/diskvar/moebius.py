"""Unit-disk Moebius maps, pseudo-hyperbolic differences, closed disks, and
second-order jet arithmetic.

Everything here works on plain ``complex`` scalars, and lane-wise on a batch:
a numpy array holding one value per sample.  Domains are checked at the API
boundary: open-disk arguments must satisfy |z| < 1, closed-disk arguments
|z| <= 1 (with a tiny slack so that unimodular values produced by
``cmath.exp`` are accepted).  A batch passes a check only when every lane
does, and a lane gets the verdict its value gets as a scalar: the disk checks
decide from x*x + y*y, not from the modulus, which CPython and numpy round
differently.  Only the batch paths import numpy, so the scalar paths run
without it.
"""

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "DomainError",
    "PoleError",
    "DegeneracyError",
    "require_finite",
    "require_int",
    "require_real",
    "unit_disk_point",
    "closed_disk_point",
    "unimodular_point",
    "mobius_T",
    "hyperbolic_bracket",
    "Disk",
    "Jet2",
    "jet_scale",
    "jet_mul",
    "jet_div",
    "jet_compose",
]

# |z| <= 1 + _CLOSED_SLACK counts as the closed disk; covers e^{i theta}
# computed in doubles.
_CLOSED_SLACK = 1e-12
_CLOSED_MAX2 = (1.0 + _CLOSED_SLACK) ** 2


class DomainError(ValueError):
    """An input lies outside the domain declared for the operation."""


class PoleError(ZeroDivisionError):
    """A denominator vanished while evaluating a map or a jet."""


class DegeneracyError(ArithmeticError):
    """The requested functional is undefined for this function/point."""


def _is_batch(x):
    """True for a numpy array of samples (ndim >= 1); numpy scalars and 0-d
    arrays count as scalars."""
    return getattr(x, "ndim", 0) > 0


def _any_lane(cond):
    """A scalar condition itself, or whether it holds in any lane of a batch."""
    return cond.any() if _is_batch(cond) else cond


# The hot scalar paths below test ``type(x) is complex`` (or float, or bool)
# before anything else: a Python scalar then costs no extra call.


def require_finite(z, name="value"):
    if type(z) is not complex and _is_batch(z):
        import numpy as np  # a batch is a numpy array, so numpy is loaded already

        z = z.astype(complex, copy=False)
        finite = np.isfinite(z)
        if not finite.all():
            raise DomainError(f"{name} must have finite components, got {complex(z[~finite][0])!r}")
        return z
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"{name} must have finite components, got {z!r}")
    return z


def require_int(n, name, minimum=0):
    """Validate an integer n >= minimum and return it as an int; bools and
    floats, even integral ones, are refused rather than truncated."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {n!r}")
    if n < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {n}")
    return int(n)


def require_real(x, name, finite=True):
    """Validate a finite real number and return it as a float; bools, strings
    and integers beyond the float range are refused rather than converted.
    With finite=False, infinities and NaN pass, for the caller's range check.
    A batch must hold integers or floats."""
    if type(x) is not float and _is_batch(x):
        if x.dtype.kind not in "iuf" or (finite and not (abs(x) < math.inf).all()):
            raise DomainError(
                f"{name} must hold a {'finite ' if finite else ''}real number in every lane, got a {x.dtype} batch"
            )
        return x.astype(float, copy=False)
    try:
        # float and int first: they skip the abstract-class check, ~10x slower
        ok = not isinstance(x, bool) and isinstance(x, (float, int, numbers.Real))
        value = float(x) if ok else None
        ok = ok and (not finite or math.isfinite(value))
    except OverflowError:
        ok = False
    if not ok:
        raise DomainError(f"{name} must be a {'finite ' if finite else ''}real number, got {x!r}")
    return value


def _modulus2(z):
    """|z|^2 as x*x + y*y, lane-wise.  CPython and numpy round it alike, so
    the domain checks decide from it: the two round the modulus itself apart
    on about a quarter of the points near |z| = 1, which gave a value and the
    same value in a batch lane different verdicts."""
    return z.real * z.real + z.imag * z.imag


def _largest_modulus2(z):
    """_modulus2 of a scalar, or its largest lane in a batch."""
    if not _is_batch(z):
        return _modulus2(z)
    m = abs(z).max()
    # below 1 - 1e-14 every lane passes both disk checks however its modulus
    # rounds, and the modulus costs half as much as x*x + y*y
    return m * m if m < 1.0 - 1e-14 else _modulus2(z).max()


def _largest_modulus(z):
    """|z|, or the largest modulus of a batch, for an error message."""
    m = abs(z)
    return m.max() if _is_batch(m) else m


def unit_disk_point(z, name="z"):
    """Validate |z| < 1 and return z as a complex number."""
    z = require_finite(z, name)
    if _largest_modulus2(z) >= 1.0:
        raise DomainError(f"{name} must lie in the open unit disk, |{name}| = {_largest_modulus(z)}")
    return z


def closed_disk_point(z, name="z"):
    """Validate |z| <= 1 and return z as a complex number."""
    z = require_finite(z, name)
    if _largest_modulus2(z) > _CLOSED_MAX2:
        raise DomainError(f"{name} must lie in the closed unit disk, |{name}| = {_largest_modulus(z)}")
    return z


def unimodular_point(z, name="alpha"):
    """Validate |z| = 1 (within 1e-9) and renormalise exactly onto the circle."""
    z = require_finite(z, name)
    m = abs(z)
    off = abs(m - 1.0) > 1e-9
    if _any_lane(off):
        raise DomainError(f"{name} must be unimodular, |{name}| = {m[off][0] if _is_batch(m) else m}")
    return z / m


def _mobius(a, z):
    """T_a(z) = (z + a) / (1 + conj(a) z), unchecked: the one formula of the
    Moebius maps, T_a nodes and brackets alike."""
    return (z + a) / (1.0 + a.conjugate() * z)


def mobius_T(a, z):
    """Disk automorphism T_a(z) = (z + a) / (1 + conj(a) z)."""
    a = unit_disk_point(a, "a")
    z = closed_disk_point(z, "z")
    return _mobius(a, z)


def hyperbolic_bracket(z, w):
    """Pseudo-hyperbolic difference [z, w] = (z - w) / (1 - conj(w) z), which
    is T_{-w}(z).

    [z, z] = 0 even for |z| = 1.  For z != w the base point must satisfy
    |w| < 1; a unimodular w with z != w is refused rather than guessed at.
    On a batch both hold lane by lane.
    """
    z = closed_disk_point(z, "z")
    w = closed_disk_point(w, "w")
    if _any_lane((z != w) & (_modulus2(w) >= 1.0)):
        raise DomainError("bracket base point must satisfy |w| < 1 when z != w")
    same = z == w
    if not _is_batch(same):
        return 0j if same else _mobius(-w, z)
    import numpy as np  # a batch is a numpy array, so numpy is loaded already

    with np.errstate(divide="ignore", invalid="ignore"):  # the z == w lanes are replaced
        return np.where(same, 0j, _mobius(-w, z))


@dataclass(frozen=True)
class Disk:
    """Closed disk {p : |p - center| <= radius}; radius 0 encodes a point."""

    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", require_finite(self.center, "center"))
        r = require_real(self.radius, "radius")
        negative = r < 0.0
        if negative if type(negative) is bool else negative.any():
            raise DomainError(f"radius must be non-negative, got {r.min() if _is_batch(r) else r}")
        object.__setattr__(self, "radius", r)

    def contains(self, p, tol=0.0):
        """Membership with relative slack: |p - center| <= radius + tol*(1 + radius)."""
        if not require_real(tol, "tol", finite=False) >= 0.0:
            raise DomainError("tol must be non-negative")
        p = require_finite(p, "p")
        return abs(p - self.center) <= self.radius + tol * (1.0 + self.radius)

    def boundary_distance(self, p):
        """Distance of p from the boundary circle: | |p - center| - radius |."""
        return abs(abs(require_finite(p, "p") - self.center) - self.radius)

    def margin(self, p):
        """Signed inclusion margin (radius - |p - center|) / (1 + radius).

        Positive inside, negative outside; the 1 + radius scaling matches the
        relative tolerance used by :meth:`contains`.
        """
        p = require_finite(p, "p")
        return (self.radius - abs(p - self.center)) / (1.0 + self.radius)


class Jet2(NamedTuple):
    """Second-order jet (f(z0), f'(z0), f''(z0)) of an analytic map, or of a
    batch of maps with one lane per sample.

    All binary operations assume both operands are expanded at the same base
    point; combining jets taken at different points is meaningless and is not
    detectable from the values themselves.
    """

    f0: complex
    f1: complex
    f2: complex


def jet_scale(s, a):
    return Jet2(s * a.f0, s * a.f1, s * a.f2)


def jet_mul(a, b):
    """Leibniz to second order: (fg)'' = f''g + 2f'g' + fg''."""
    return Jet2(
        a.f0 * b.f0,
        a.f1 * b.f0 + a.f0 * b.f1,
        a.f2 * b.f0 + 2.0 * a.f1 * b.f1 + a.f0 * b.f2,
    )


def jet_div(a, b):
    """Quotient jet; solves a = q*b order by order."""
    zero = b.f0 == 0
    if zero if type(zero) is bool else zero.any():
        raise PoleError("jet division by a jet with zero value part")
    q0 = a.f0 / b.f0
    q1 = (a.f1 - q0 * b.f1) / b.f0
    q2 = (a.f2 - 2.0 * q1 * b.f1 - q0 * b.f2) / b.f0
    return Jet2(q0, q1, q2)


def jet_compose(outer, inner):
    """Chain rule; ``outer`` must be expanded at ``inner.f0``."""
    return Jet2(
        outer.f0,
        outer.f1 * inner.f1,
        outer.f2 * inner.f1 * inner.f1 + outer.f1 * inner.f2,
    )

