"""Domain checks for points of the unit disk, closed disks, and jet
arithmetic to order 2.  The disk automorphisms T_a are tree nodes
(``functions.MobiusT`` and ``functions.Bracket``), computed by one formula,
``functions._mobius_jet``.

Everything here works on plain ``complex`` scalars, and lane-wise on a batch:
a numpy array holding one value per sample.  Domains are checked at the API
boundary: open-disk arguments must satisfy |z| < 1, closed-disk arguments
|z| <= 1 (with a tiny slack so that unimodular values produced by
``cmath.exp`` are accepted).  A batch passes a check only when every lane
does, and a lane gets the verdict its value gets as a scalar: the disk checks
decide from x*x + y*y, not from the modulus, which CPython and numpy round
differently.  A batch well inside the disk it is checked against, open or
closed, is accepted from one pass over |z|; a unimodular batch passes the
closed check that way.  Only a batch near or beyond the bounding circle, or
with a lane that is not finite, is decided lane by lane from x*x + y*y, and
only that path raises.  Batches that meet in one call must have one shape,
or one lane (``_same_lanes``); any other value, None or a list say, is a
``DomainError`` too.
A jet (``Jet2``) holds a value and its derivatives up to its order, 0, 1 or
2, and None beyond it; each ``jet_*`` helper computes only the orders its
inputs carry.
``_ops`` is the one place that chooses between scalars and lanes: it maps
a value to numpy when it is a batch, and to the math/cmath counterparts of
the numpy functions otherwise.  It alone imports numpy, so the scalar paths
run without it.
"""

import cmath
import math
import numbers
from types import SimpleNamespace
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
# |z| < _WELL_INSIDE passes the open disk check however x*x + y*y rounds, and
# |z| < _CLOSED_WELL_INSIDE the closed one: abs and x*x + y*y each round within
# a few ulps (~1e-16 relative), far inside the 1e-14 margin, so a batch
# accepted from one pass is one the lane-by-lane check accepts too.
_WELL_INSIDE = 1.0 - 1e-14
_CLOSED_WELL_INSIDE = (1.0 + _CLOSED_SLACK) * _WELL_INSIDE


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


# what _ops gives for a scalar: math and cmath functions under numpy's names
_SCALAR_OPS = SimpleNamespace(
    angle=cmath.phase,
    exp=cmath.exp,
    sqrt=math.sqrt,
    maximum=max,
    where=lambda cond, then, other: then if cond else other,
)


def _ops(x):
    """numpy for a batch ``x``, else ``_SCALAR_OPS``.  Call it on the value an
    operation acts on (for ``where``, the condition), not on every argument:
    a value computed from scalars stays a scalar beside a batch."""
    if _is_batch(x):
        import numpy  # a batch is a numpy array, so numpy is loaded already

        return numpy
    return _SCALAR_OPS


def _any_lane(cond):
    """A scalar condition itself, or whether it holds in any lane of a batch."""
    return cond if type(cond) is bool else cond.any() if _is_batch(cond) else cond


def _refuse_batch(x, name, caller, lanes=None):
    """Refuse a batch ``x`` where ``caller`` takes a scalar ``name``;
    ``lanes`` names the function that takes lanes instead, if there is one."""
    if _is_batch(x):
        instead = f"; {lanes} takes lanes" if lanes else ""
        raise DomainError(f"{caller} takes a scalar {name}, not a batch{instead}")


def _same_lanes(*values):
    """Refuse lane arguments of different shapes; a scalar, or a batch of one
    lane, goes with any.  Arguments of one shape pass on one set of shapes."""
    shapes = {x.shape for x in values if _is_batch(x) and x.size != 1}
    if len(shapes) > 1:
        raise DomainError(f"lane arguments must have one shape, got {' and '.join(map(str, sorted(shapes)))}")


def _lane(x, bad):
    """x itself, or the first lane of a batch x where ``bad`` holds: the value
    an error message names."""
    return x[bad][0] if _is_batch(x) else x


# The hot scalar paths below test ``type(x) is complex`` (or float) before
# anything else: a Python scalar then costs no extra call.


def _all_below(x, bound):
    """Whether every lane of a batch has |x| < bound, from one pass.  An empty
    batch passes; a NaN, an infinity or a modulus that overflows fails."""
    return abs(x).max(initial=0.0) < bound


def _complex_lanes(z, name):
    """A batch z as complex lanes; a batch of strings, bytes, bools or
    objects is refused rather than converted."""
    if z.dtype.kind not in "iufc":
        raise DomainError(f"{name} must hold a number in every lane, got a {z.dtype} batch")
    return z.astype(complex, copy=False)


def require_finite(z, name="value"):
    """Validate a finite complex number and return it as a complex; None,
    strings, bytes, bools and sequences are refused rather than converted.
    A batch must hold integers, floats or complex numbers."""
    if type(z) is not complex:
        if _is_batch(z):
            z = _complex_lanes(z, name)
            if not _all_below(z, math.inf):
                finite = _ops(z).isfinite(z)
                if not finite.all():
                    raise DomainError(f"{name} must have finite components, got {complex(_lane(z, ~finite))!r}")
            return z
        # a numpy scalar or 0-d array names its kind by its dtype, as a batch
        # does; complex() would parse a string and take a bool, and raises
        # for None, a sequence and an int beyond the floats
        kind = getattr(getattr(z, "dtype", None), "kind", "c")
        try:
            if isinstance(z, (str, bytes, bool)) or kind not in "iufc":
                raise TypeError
            z = complex(z)
        except (TypeError, OverflowError):
            raise DomainError(f"{name} must be a complex number, got {z!r}") from None
    if not cmath.isfinite(z):
        raise DomainError(f"{name} must have finite components, got {z!r}")
    return z


def require_int(n, name, minimum=0):
    """Validate an integer n >= minimum, an integer too, and return it as an
    int; bools and floats, even integral ones, are refused rather than
    truncated."""
    for value, label in ((n, name), (minimum, "minimum")):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DomainError(f"{label} must be an integer, got {value!r}")
    if n < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {n}")
    return int(n)


def require_real(x, name, finite=True):
    """Validate a finite real number and return it as a float; bools, strings
    and integers beyond the float range are refused rather than converted.
    With finite=False, infinities and NaN pass, for the caller's range check.
    A batch must hold integers or floats."""
    if type(x) is not float and _is_batch(x):
        if x.dtype.kind not in "iuf" or (finite and not _all_below(x, math.inf)):
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
    same value in a batch lane different verdicts.  Overflow gives inf in both."""
    if _is_batch(z):
        with _ops(z).errstate(over="ignore"):
            return z.real * z.real + z.imag * z.imag
    return z.real * z.real + z.imag * z.imag


def _modulus(z):
    """abs(z), but inf where CPython's abs of a finite z overflows and raises."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _require_w0_below_z0(z0, w0, name):
    """Refuse unless |w0| < |z0| in every lane, as f(0) = 0 requires of w0 =
    f(z0), and lanes of z0 and w0 that do not pair up.  As in the disk checks,
    a lane with |w0| < _WELL_INSIDE |z0| passes from its moduli, and one nearer
    the edge is decided from x*x + y*y, which CPython and numpy round alike
    (it underflows for |z0| below ~1e-154)."""
    _same_lanes(z0, w0)
    near = _modulus(w0) >= _WELL_INSIDE * abs(z0)
    if _any_lane(near) and _any_lane(near & (_modulus2(w0) >= _modulus2(z0))):
        raise DomainError(f"{name} requires |w0| < |z0|")


def _disk_check(z, name, closed):
    """unit_disk_point, or closed_disk_point when ``closed``: they differ in a bound and a word."""
    if type(z) is not complex and _is_batch(z):
        z = _complex_lanes(z, name)
        if _all_below(z, _CLOSED_WELL_INSIDE if closed else _WELL_INSIDE):
            return z
    z = require_finite(z, name)
    m2 = _modulus2(z)
    outside = m2 > _CLOSED_MAX2 if closed else m2 >= 1.0
    if _any_lane(outside):
        disk = "closed" if closed else "open"
        raise DomainError(f"{name} must lie in the {disk} unit disk, |{name}| = {_modulus(_lane(z, outside))}")
    return z


def unit_disk_point(z, name="z"):
    """Validate |z| < 1 and return z as a complex number."""
    return _disk_check(z, name, False)


def closed_disk_point(z, name="z"):
    """Validate |z| <= 1 and return z as a complex number."""
    return _disk_check(z, name, True)


def unimodular_point(z, name="alpha"):
    """Validate |z| = 1 (within 1e-9) and renormalise exactly onto the circle."""
    z = require_finite(z, name)
    m = _modulus(z)
    off = abs(m - 1.0) > 1e-9
    if _any_lane(off):
        raise DomainError(f"{name} must be unimodular, |{name}| = {_lane(m, off)}")
    return z / m


# how a record's __init__ stores a field: _Frozen refuses plain assignment
_set_field = object.__setattr__


class _Frozen:
    """Base of the records that validate their fields.  The fields are the
    class annotations, in order, and each subclass's ``__init__`` validates
    its arguments and stores each field once, with ``_set_field``.  Records
    are equal when they have the same class and equal fields, hash as the
    tuple of their fields, print as ``Name(field=value, ...)`` and refuse
    assignment and deletion."""

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in type(self).__annotations__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__annotations__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Disk(_Frozen):
    """Closed disk {p : |p - center| <= radius}; radius 0 encodes a point."""

    center: complex
    radius: float

    def __init__(self, center, radius):
        _set_field(self, "center", require_finite(center, "center"))
        r = require_real(radius, "radius")
        _same_lanes(self.center, r)
        # require_real has refused NaN, so the least lane decides a batch
        if (r if type(r) is float else r.min(initial=0.0)) < 0.0:
            raise DomainError(f"radius must be non-negative, got {_lane(r, r < 0.0)}")
        _set_field(self, "radius", r)

    def boundary_distance(self, p):
        """Distance of p from the boundary circle: | |p - center| - radius |."""
        return abs(abs(require_finite(p, "p") - self.center) - self.radius)

    def margin(self, p):
        """Signed inclusion margin (radius - |p - center|) / (1 + radius).

        Positive inside, negative outside; the 1 + radius scaling makes it
        relative, so that p lies within tol of the disk, in that scale,
        exactly when the margin is >= -tol.
        """
        p = require_finite(p, "p")
        return (self.radius - abs(p - self.center)) / (1.0 + self.radius)


class Jet2(NamedTuple):
    """Jet (f(z0), f'(z0), f''(z0)) of an analytic map to order 0, 1 or 2,
    or of a batch of maps with one lane per sample.  The derivatives beyond
    its order are None: a jet of order 0 is (f(z0), None, None).

    Each helper below computes only the orders its inputs carry, so its
    result has the lower order of its operands (``jet_mul`` excepted, see
    there).  All binary operations assume both operands are expanded at the
    same base point; combining jets taken at different points is meaningless
    and is not detectable from the values themselves.
    """

    f0: complex
    f1: complex = None
    f2: complex = None


def jet_scale(s, a):
    """s times a jet, for a finite s or a batch of them."""
    s = require_finite(s, "s")
    f1, f2 = a.f1, a.f2
    return Jet2(s * a.f0, None if f1 is None else s * f1, None if f2 is None else s * f2)


def _order(j):
    """The order of a jet: the index of its last component that is not None."""
    return 0 if j.f1 is None else 1 if j.f2 is None else 2


def jet_mul(a, b):
    """Leibniz: (fg)' = f'g + fg' and (fg)'' = f''g + 2f'g' + fg''.

    The product has a's order.  b may be one order short where a's value is
    0 in every lane, as a Schur step's u is at z0: the terms it lacks are the
    ones multiplied by that exact 0, and are dropped.
    """
    ka, kb = _order(a), _order(b)
    if kb < ka and (kb < ka - 1 or _any_lane(a.f0 != 0)):
        raise DomainError(f"jet_mul needs a right factor of order {ka}, or {ka - 1} where the left one vanishes")
    f0 = a.f0 * b.f0
    if ka == 0:
        return Jet2(f0)
    f1 = a.f1 * b.f0 if kb == 0 else a.f1 * b.f0 + a.f0 * b.f1
    if ka == 1:
        return Jet2(f0, f1)
    f2 = a.f2 * b.f0 + 2.0 * a.f1 * b.f1
    return Jet2(f0, f1, f2 if kb == 1 else f2 + a.f0 * b.f2)


def jet_div(a, b):
    """Quotient jet; solves a = q*b order by order, to the lower order of a and b."""
    # a batch's all() counts NaN as non-zero, as the scalar == 0 does
    if (not b.f0.all()) if _is_batch(b.f0) else b.f0 == 0:
        raise PoleError("jet division by a jet with zero value part")
    q0 = a.f0 / b.f0
    if a.f1 is None or b.f1 is None:
        return Jet2(q0)
    q1 = (a.f1 - q0 * b.f1) / b.f0
    if a.f2 is None or b.f2 is None:
        return Jet2(q0, q1)
    return Jet2(q0, q1, (a.f2 - 2.0 * q1 * b.f1 - q0 * b.f2) / b.f0)


def jet_compose(outer, inner):
    """Chain rule, to the lower order of the two; ``outer`` must be expanded
    at ``inner.f0``."""
    if outer.f1 is None or inner.f1 is None:
        return Jet2(outer.f0)
    f1 = outer.f1 * inner.f1
    if outer.f2 is None or inner.f2 is None:
        return Jet2(outer.f0, f1)
    return Jet2(outer.f0, f1, outer.f2 * inner.f1 * inner.f1 + outer.f1 * inner.f2)
