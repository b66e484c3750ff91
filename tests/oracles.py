"""Shared numerical oracles for the tests.

Finite differences are evaluated in mpmath working precision: at h = 1e-5 a
double-precision second difference carries ~1e-4 relative roundoff, far above
what the jet comparisons need, so the trees are evaluated at 40 digits and
only the final comparison drops to floats.
"""

import cmath
import math

import mpmath as mp
import numpy as np

from diskvar.functions import Constant, Identity, MobiusT, Product

mp.mp.dps = 40

FD_H = mp.mpf("1e-5")


def fd_jet(f, z0):
    """Central finite-difference (value, f', f'') of a tree at z0."""
    z = mp.mpc(z0.real, z0.imag)
    up = f.value(z + FD_H)
    mid = f.value(z)
    down = f.value(z - FD_H)
    f1 = (up - down) / (2 * FD_H)
    f2 = (up - 2 * mid + down) / (FD_H * FD_H)
    return complex(mid), complex(f1), complex(f2)


def rel_err(measured, reference):
    """|measured - reference| / max(1, |reference|)."""
    return abs(measured - reference) / max(1.0, abs(reference))


def unit_circle(n):
    """n-th roots of unity."""
    return [cmath.exp(2j * math.pi * k / n) for k in range(n)]


def lane_params(point, free, i):
    """The data and ``free`` values of lane i of an attainment grid point, as
    Python scalars: the parameters of that lane's scalar extremal."""
    n = point.data["z0"].size
    return {name: np.broadcast_to(v, n)[i].item() for name, v in {**point.data, **free}.items()}


def one_step(z0, delta0, alpha):
    """T_{delta0}(alpha u) with u = T_{-z0}(z), the constant before u: the
    hand-written one-step extremal."""
    return MobiusT(delta0, Product(Constant(alpha), MobiusT(-z0, Identity())))


def two_step(z0, delta0, delta1, alpha):
    """T_{delta0}(u T_{delta1}(alpha u)), the constant before u: the
    hand-written two-step extremal."""
    u = MobiusT(-z0, Identity())
    return MobiusT(delta0, Product(u, MobiusT(delta1, Product(Constant(alpha), u))))


# each disk kind's extremal written out by hand, its arguments in the order of
# the kind's data and free values: the reference for the trees the kinds build
# through the parametrizations
REFERENCE_EXTREMALS = {
    "schwarz-pick": one_step,
    "dieudonne": lambda z0, w0, alpha: Product(Identity(), one_step(z0, w0 / z0, alpha)),
    "second-degenerate": one_step,
    "second-boundary": two_step,
    "dieudonne2-degenerate": lambda z0, w0, delta1: Product(Identity(), one_step(z0, w0 / z0, delta1)),
    "dieudonne2-boundary": lambda z0, w0, delta1, alpha: Product(Identity(), two_step(z0, w0 / z0, delta1, alpha)),
}
