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

from diskvar.functions import Bracket, Compose, Constant, Identity, MobiusT, Product, Rotation, _disk_point

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


def disk_sample(rng, cap, size=None):
    """Area-uniform point with |z| <= cap, or a batch of ``size`` such points."""
    return _disk_point(cap, rng.random(size), rng.random(size))


def mobius(a, z):
    """T_a(z) = (z + a) / (1 + conj(a) z), written out as the reference."""
    return (z + a) / (1 + a.conjugate() * z)


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


# -- every tree as a rational function p/q ------------------------------------


def _poly_mul(a, b):
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_sum(coeffs, polys):
    """sum_k coeffs[k] polys[k], for polynomials of one length."""
    return [sum(c * poly[i] for c, poly in zip(coeffs, polys)) for i in range(len(polys[0]))]


def _poly_pow(a, k):
    out = [1 + 0j]
    for _ in range(k):
        out = _poly_mul(out, a)
    return out


def rational(tree):
    """Coefficient lists (p, q), lowest degree first and of one length d + 1,
    with tree = p/q: every node maps rational functions to rational functions,
    so a scalar tree reduces by polynomial arithmetic alone.  d counts the
    degrees the nodes add up, with no cancellation."""
    if isinstance(tree, Identity):
        return [0j, 1 + 0j], [1 + 0j, 0j]
    if isinstance(tree, Constant):
        return [complex(tree.c)], [1 + 0j]
    if isinstance(tree, Rotation):
        p, q = rational(tree.child)
        turn = cmath.exp(1j * tree.theta)
        return [turn * c for c in p], q
    if isinstance(tree, (MobiusT, Bracket)):
        # T_a(p/q) = (p + a q) / (q + conj(a) p); a bracket is T_{-w}
        a = tree.a if isinstance(tree, MobiusT) else -tree.w
        p, q = rational(tree.child)
        return [x + a * y for x, y in zip(p, q)], [y + a.conjugate() * x for x, y in zip(p, q)]
    if isinstance(tree, Product):
        (pl, ql), (pr, qr) = rational(tree.left), rational(tree.right)
        return _poly_mul(pl, pr), _poly_mul(ql, qr)
    if isinstance(tree, Compose):
        # sum_k P_k p^k q^(d-k) over sum_k Q_k p^k q^(d-k)
        (P, Q), (p, q) = rational(tree.outer), rational(tree.inner)
        d = len(P) - 1
        terms = [_poly_mul(_poly_pow(p, k), _poly_pow(q, d - k)) for k in range(d + 1)]
        return _poly_sum(P, terms), _poly_sum(Q, terms)
    raise TypeError(f"no rational form for {type(tree).__name__}")


def _taylor2(coeffs, z):
    """(value, first, second derivative) of a polynomial at z, by Horner."""
    f0 = f1 = f2 = 0j
    for c in reversed(coeffs):
        f2 = f2 * z + 2 * f1
        f1 = f1 * z + f0
        f0 = f0 * z + c
    return f0, f1, f2


def rational_jet(p, q, z):
    """(g, g', g'') of g = p/q at z, by the quotient rule."""
    p0, p1, p2 = _taylor2(p, z)
    q0, q1, q2 = _taylor2(q, z)
    f0 = p0 / q0
    f1 = (p1 - f0 * q1) / q0
    return f0, f1, (p2 - 2 * f1 * q1 - f0 * q2) / q0


def inner_misfit(p, q):
    """How far (p, q) is from q_k = lam conj(p_{d-k}) with |lam| = 1, the
    coefficient identity of an inner rational function of degree d, relative
    to the largest coefficient of q; inf where p_d = 0."""
    d = len(p) - 1
    if p[d] == 0:
        return math.inf
    lam = q[0] / p[d].conjugate()
    misfit = max(abs(q[k] - lam * p[d - k].conjugate()) for k in range(d + 1))
    return max(abs(abs(lam) - 1.0), misfit / max(map(abs, q)))
