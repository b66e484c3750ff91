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
