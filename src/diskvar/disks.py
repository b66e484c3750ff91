"""Exact variability regions (closed disks) for values and derivatives of
analytic self-maps of the unit disk, and the invariant derivative functionals
used to state them.

Conventions: g is analytic with |g| <= 1 on the disk; r = |z0|, s = |w0|,
R = |delta0|.  Every region below is sharp.  Which of them the CLI prints,
the membership suite samples, an extremal kind attains and an automorphism
property moves is stated region by region in
``tests/test_region_coverage.py``, which fails when a region, a membership
family or a disk kind comes or goes without it.
``schwarz_pick_disk``, ``dieudonne_disk``, ``mercer_disk``,
``second_derivative_disk`` and ``second_order_dieudonne_disk`` also take
batches (see ``diskvar.moebius``) and return one disk per lane, and
``max_attaining_alpha`` one parameter per lane, which is how the harness
checks a whole block of samples, or a whole attainment grid, at once.
"""

import sys
from typing import NamedTuple

from .functions import PrescribedData, _mobius_jet, _require_tree, eval_jet
from .moebius import (
    DegeneracyError,
    Disk,
    DomainError,
    Jet2,
    _SCALAR_OPS,
    _any_lane,
    _ops,
    _refuse_batch,
    _require_w0_below_z0,
    _same_lanes,
    closed_disk_point,
    require_finite,
    unit_disk_point,
)

__all__ = [
    "schwarz_pick_disk",
    "rogosinski_disk",
    "mercer_disk",
    "dieudonne_disk",
    "second_derivative_disk",
    "max_attaining_alpha",
    "SecondOrderDisk",
    "second_order_dieudonne_disk",
    "DerivativePair",
    "peschl_pair",
]


def _unit_gap(delta1):
    """1 - |delta1|^2, clamped at +0.0 lane-wise: a closed-disk delta1 may
    lie up to 1e-12 outside the circle, or its modulus may round there."""
    gap = 1.0 - abs(delta1) ** 2
    return _ops(gap).maximum(gap, 0.0)


def schwarz_pick_disk(z0, delta0):
    """Region of g'(z0) over self-maps with g(z0) = delta0.

    The disk is centered at 0 with radius (1 - |delta0|^2) / (1 - |z0|^2).
    """
    z0 = unit_disk_point(z0, "z0")
    delta0 = unit_disk_point(delta0, "delta0")
    _same_lanes(z0, delta0)
    return Disk(0j, (1.0 - abs(delta0) ** 2) / (1.0 - abs(z0) ** 2))


def _pick_image(scale, a, s2, rscale):
    """``scale`` times the region of h(zeta) over Schur functions h with
    h(0) = a at |zeta|^2 = s2, a Moebius image of a centered disk: center
    scale a (1 - s2) / (1 - s2 |a|^2), radius rscale (1 - |a|^2) /
    (1 - s2 |a|^2), where ``rscale`` is |scale zeta| as the caller rounds it."""
    a2 = abs(a) ** 2
    den = 1.0 - s2 * a2
    return Disk(scale * a * (1.0 - s2) / den, rscale * (1.0 - a2) / den)


def rogosinski_disk(z0, gprime0):
    """Region of g(z0) over self-maps with g(0) = 0 and g'(0) = gprime0."""
    z0 = unit_disk_point(z0, "z0")
    b = unit_disk_point(gprime0, "gprime0")
    _same_lanes(z0, b)
    r2 = abs(z0) ** 2
    return _pick_image(z0, b, r2, r2)


def dieudonne_disk(z0, w0):
    """Region of f'(z0) over self-maps with f(0) = 0 and f(z0) = w0.

    center = w0/z0, radius = (|z0|^2 - |w0|^2) / (|z0| (1 - |z0|^2)).
    Writing f = z h with h(z0) = w0/z0, this is w0/z0 plus z0 times the
    Schwarz-Pick disk of h'(z0).  A z0 with |z0|^2 below the smallest normal
    double is refused: the radius would lose its accuracy or divide by 0.
    """
    return _dieudonne_disk(unit_disk_point(z0, "z0"), require_finite(w0, "w0"))


def _dieudonne_disk(z0, w0):
    """dieudonne_disk of a validated z0 and w0."""
    r = abs(z0)
    # |z0| may still round to 1, and the radius divides by 1 - |z0|^2
    if _any_lane(r >= 1.0):
        raise DomainError("z0 must lie in the open unit disk")
    _require_w0_below_z0(z0, w0, "dieudonne_disk")
    s = abs(w0)
    if _any_lane(r * r < sys.float_info.min):
        # |z0|^2 would be subnormal or 0, and the closed forms divide by it
        raise DomainError(f"dieudonne_disk requires |z0|^2 >= {sys.float_info.min} (a normal double)")
    return Disk(w0 / z0, (r * r - s * s) / (r * (1.0 - r * r)))


def mercer_disk(z0, w0, z):
    """Region of g(z) over self-maps with g(0) = 0 and g(z0) = w0.

    With u0 = w0/z0 and t = T_{-z0}(z), the region is z times the two-point
    Schwarz-Pick disk of h(z) for h = g/z:

        center = z u0 (1 - |t|^2) / (1 - |u0|^2 |t|^2)
        radius = |z t| (1 - |u0|^2) / (1 - |u0|^2 |t|^2)

    At z = z0 the region degenerates to the point {w0}; as z0 -> 0 with
    w0/z0 -> b it converges to the Rogosinski disk for g'(0) = b.
    """
    z0 = unit_disk_point(z0, "z0")
    w0 = require_finite(w0, "w0")
    z = unit_disk_point(z, "z")
    _same_lanes(z0, w0, z)
    _require_w0_below_z0(z0, w0, "mercer_disk")
    t = _mobius_jet(-z0, Jet2(z)).f0
    return _pick_image(z, w0 / z0, abs(t) ** 2, abs(z * t))


def second_derivative_disk(data):
    """Region of g''(z0) over self-maps with the given value and hyperbolic
    derivative at z0.

        c2  = 2 (1 - |delta0|^2) (conj(z0) - conj(delta0) delta1) delta1 / (1 - |z0|^2)^2
        rho2 = 2 (1 - |delta0|^2) (1 - |delta1|^2) / (1 - |z0|^2)^2

    For |delta1| = 1 the radius vanishes: the class contains exactly one
    function (a degree-1 Blaschke product) and g''(z0) = c2.
    """
    if type(data) is not PrescribedData:
        raise DomainError(f"second_derivative_disk needs a PrescribedData record, got {data!r}")
    z0, d0, d1 = data.z0, data.delta0, data.delta1
    lead = 2.0 * (1.0 - abs(d0) ** 2) / (1.0 - abs(z0) ** 2) ** 2
    center = lead * (z0.conjugate() - d0.conjugate() * d1) * d1
    radius = lead * _unit_gap(d1)
    return Disk(center, radius)


def max_attaining_alpha(data):
    """Boundary parameter alpha at which |g''(z0)| is maximal.

    Returns None when the center vanishes (delta1 = 0 or the centered case):
    then every unimodular alpha attains the maximum.  For a batch, the lanes
    where the center vanishes hold NaN.
    """
    center = second_derivative_disk(data).center
    ops = _ops(center)
    if ops is _SCALAR_OPS:
        return None if center == 0 else center / abs(center)
    with ops.errstate(invalid="ignore"):  # 0/0 gives the NaN lanes
        return center / abs(center)


class SecondOrderDisk(NamedTuple):
    """Derived first derivative w1 and the region of f''(z0)."""

    w1: complex
    region: Disk


def second_order_dieudonne_disk(z0, w0, delta1):
    """Region of f''(z0) over self-maps with f(0) = 0, f(z0) = w0 and first
    derivative pinned at w1 (returned alongside the region).

        c2'  = 2 (r^2 - s^2) delta1 (1 - (z0 conj(w0)/conj(z0)) delta1) / (r^2 (1 - r^2)^2)
        rho2' = 2 (r^2 - s^2) (1 - |delta1|^2) / (r (1 - r^2)^2)
    """
    z0 = unit_disk_point(z0, "z0")
    w0 = require_finite(w0, "w0")
    d1 = closed_disk_point(delta1, "delta1")
    _same_lanes(z0, w0, d1)
    first = _dieudonne_disk(z0, w0)
    # w1 = c1 + rho1 * r * delta1 / conj(z0) with (c1, rho1) the first-order disk
    w1 = first.center + first.radius * abs(z0) * d1 / z0.conjugate()
    r = abs(z0)
    s = abs(w0)
    lead = 2.0 * (r * r - s * s) / (1.0 - r * r) ** 2
    center = (lead / (r * r)) * d1 * (1.0 - (z0 * w0.conjugate() / z0.conjugate()) * d1)
    radius = (lead / r) * _unit_gap(d1)
    return SecondOrderDisk(w1, Disk(center, radius))


class DerivativePair(NamedTuple):
    d1: complex
    d2: complex


def peschl_pair(g, z0):
    """First and second invariant derivatives of g at z0.

        D1 g = (1 - |z0|^2) g' / (1 - |g|^2)
        D2 g = (1 - |z0|^2)^2 / (1 - |g|^2)
               * [ g'' - 2 conj(z0) g' / (1 - |z0|^2) + 2 conj(g) g'^2 / (1 - |g|^2) ]

    |D2 g| <= 2 (1 - |D1 g|^2), with equality exactly for Blaschke products
    of degree <= 2.  Undefined when |g(z0)| = 1 (g is then a unimodular
    constant).  z0 and g are scalars: a tree of lanes is refused, as a
    batch z0 is.
    """
    _refuse_batch(z0, "z0", "peschl_pair")
    _require_tree(g, "peschl_pair", "g")
    j = eval_jet(g, z0)
    _refuse_batch(j.f0, "g", "peschl_pair")
    z0 = complex(z0)
    gden = 1.0 - abs(j.f0) ** 2
    if gden <= 0.0:
        raise DegeneracyError("|g(z0)| = 1: invariant derivatives are undefined")
    zden = 1.0 - abs(z0) ** 2
    d1 = zden * j.f1 / gden
    inner = j.f2 - 2.0 * z0.conjugate() * j.f1 / zden + 2.0 * j.f0.conjugate() * j.f1 * j.f1 / gden
    d2 = zden * zden * inner / gden
    return DerivativePair(d1, d2)
