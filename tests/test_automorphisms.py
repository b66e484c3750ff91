"""The closed forms against the automorphisms of the disk.

The classes the regions describe are closed under the automorphisms, so each
region must move by the chain rule:

* a rotation f -> e^{-i psi} f(e^{i psi} z) keeps f(0) = 0 and f'(0).  It
  takes the data (z0, w0) to e^{-i psi} (z0, w0) and the point z to
  e^{-i psi} z, turns f(z) by e^{-i psi} and f''(z0) by e^{i psi}, and leaves
  f'(z0) alone;
* pre-composition by phi = eta T_b takes g to g o phi, with the same value
  delta0 at zeta = phi^{-1}(z0), the hyperbolic derivative delta1 turned by
  the phase of phi'(zeta), and
  (g o phi)''(zeta) = phi'(zeta)^2 g''(z0) + g'(z0) phi''(zeta);
* post-composition by T_a takes g to T_a o g, with the value T_a(delta0) at
  z0, delta1 turned by the phase of T_a'(delta0), and
  (T_a o g)''(z0) = T_a''(delta0) g'(z0)^2 + T_a'(delta0) g''(z0).

Each property compares a closed form at the moved data with the image of the
closed form at the original data, within TOL (|c| + rho) of that image's
center c and radius rho.  Each modulus drawn is 0 or at least 1e-6, so no
product of two of them is subnormal, where a double keeps no relative
accuracy.
"""

import cmath
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diskvar.disks import (
    dieudonne_disk,
    mercer_disk,
    rogosinski_disk,
    schwarz_pick_disk,
    second_derivative_disk,
    second_order_dieudonne_disk,
)
from diskvar.functions import PrescribedData

from oracles import mobius

TOL = 1e-12

phases = st.floats(min_value=0.0, max_value=2.0 * math.pi)


def polar(max_modulus, zero=True):
    moduli = st.floats(min_value=1e-6, max_value=max_modulus)
    return st.builds(cmath.rect, moduli | st.just(0.0) if zero else moduli, phases)


# f(0) = 0 data: z0 and w0 = u0 z0 with |u0| <= 0.95
z0s = polar(0.95, zero=False)
u0s = polar(0.95)


def assert_moved(disk, center, radius):
    scale = abs(center) + radius
    assert abs(disk.center - center) <= TOL * scale
    assert abs(disk.radius - radius) <= TOL * scale


@settings(max_examples=200, deadline=None)
@given(z0=z0s, u0=u0s, psi=phases)
def test_the_dieudonne_disk_is_rotation_invariant(z0, u0, psi):
    turn = cmath.exp(-1j * psi)
    w0 = u0 * z0
    disk = dieudonne_disk(z0, w0)
    assert_moved(dieudonne_disk(turn * z0, turn * w0), disk.center, disk.radius)


@settings(max_examples=200, deadline=None)
@given(z0=z0s, u0=u0s, z=polar(0.95), psi=phases)
def test_the_mercer_disk_turns_with_the_rotation(z0, u0, z, psi):
    # the turned z and z0 are rounded, which moves T_{-z0}(z) by ~1e-16 and
    # the disk by that much relative to |T_{-z0}(z)|
    assume(abs(mobius(-z0, z)) >= 1e-3)
    turn = cmath.exp(-1j * psi)
    w0 = u0 * z0
    disk = mercer_disk(z0, w0, z)
    assert_moved(mercer_disk(turn * z0, turn * w0, turn * z), turn * disk.center, disk.radius)


@settings(max_examples=200, deadline=None)
@given(z0=z0s, u0=u0s, delta1=polar(1.0), psi=phases)
def test_the_second_order_dieudonne_disk_turns_with_the_rotation(z0, u0, delta1, psi):
    # w1 = c1 + rho1 |z0| delta1 / conj(z0) is f'(z0), which the rotation
    # keeps: delta1 turns against conj(z0)
    turn = cmath.exp(-1j * psi)
    w0 = u0 * z0
    w1, region = second_order_dieudonne_disk(z0, w0, delta1)
    moved_w1, moved = second_order_dieudonne_disk(turn * z0, turn * w0, delta1 / turn)
    first = dieudonne_disk(z0, w0)
    assert abs(moved_w1 - w1) <= TOL * (abs(first.center) + first.radius)
    assert_moved(moved, region.center / turn, region.radius)


@settings(max_examples=200, deadline=None)
@given(z=polar(0.95), b=polar(0.95), psi=phases)
def test_the_rogosinski_disk_turns_with_the_rotation(z, b, psi):
    # g'(0) = b is kept, g(z) turns
    turn = cmath.exp(-1j * psi)
    disk = rogosinski_disk(z, b)
    assert_moved(rogosinski_disk(turn * z, b), turn * disk.center, disk.radius)


def pre_composition(z0, b, eta):
    """zeta = phi^{-1}(z0), phi'(zeta) and phi''(zeta) for phi = eta T_b."""
    rotation = cmath.exp(1j * eta)
    zeta = (z0 / rotation - b) / (1.0 - b.conjugate() * z0 / rotation)
    den = 1.0 + b.conjugate() * zeta
    phi1 = rotation * (1.0 - abs(b) ** 2) / den**2
    return zeta, phi1, -2.0 * b.conjugate() * phi1 / den


def post_composition(a, w):
    """T_a(w), T_a'(w) and T_a''(w)."""
    den = 1.0 + a.conjugate() * w
    t1 = (1.0 - abs(a) ** 2) / den**2
    return mobius(a, w), t1, -2.0 * a.conjugate() * t1 / den


def first_derivative(z0, delta0, delta1):
    """g'(z0) = delta1 (1 - |delta0|^2) / (1 - |z0|^2)."""
    return delta1 * (1.0 - abs(delta0) ** 2) / (1.0 - abs(z0) ** 2)


@settings(max_examples=200, deadline=None)
@given(z0=polar(0.95), delta0=polar(0.95), b=polar(0.9), eta=phases)
def test_the_schwarz_pick_disk_under_pre_composition(z0, delta0, b, eta):
    zeta, phi1, _ = pre_composition(z0, b, eta)
    disk = schwarz_pick_disk(z0, delta0)
    assert_moved(schwarz_pick_disk(zeta, delta0), phi1 * disk.center, abs(phi1) * disk.radius)


@settings(max_examples=200, deadline=None)
@given(z0=polar(0.95), delta0=polar(0.95), a=polar(0.9))
def test_the_schwarz_pick_disk_under_post_composition(z0, delta0, a):
    value, t1, _ = post_composition(a, delta0)
    disk = schwarz_pick_disk(z0, delta0)
    assert_moved(schwarz_pick_disk(z0, value), t1 * disk.center, abs(t1) * disk.radius)


# |delta1| <= 0.99: the turned delta1 is rounded, which moves 1 - |delta1|^2 by
# ~1e-16; on the circle, with z0 = delta0 = 0, that is all of |c| + rho
@settings(max_examples=200, deadline=None)
@given(z0=polar(0.95), delta0=polar(0.95), delta1=polar(0.99), b=polar(0.9), eta=phases)
def test_the_second_derivative_disk_under_pre_composition(z0, delta0, delta1, b, eta):
    zeta, phi1, phi2 = pre_composition(z0, b, eta)
    disk = second_derivative_disk(PrescribedData(z0, delta0, delta1))
    moved = second_derivative_disk(PrescribedData(zeta, delta0, delta1 * phi1 / abs(phi1)))
    g1 = first_derivative(z0, delta0, delta1)
    assert_moved(moved, phi1 * phi1 * disk.center + g1 * phi2, abs(phi1) ** 2 * disk.radius)


@settings(max_examples=200, deadline=None)
@given(z0=polar(0.95), delta0=polar(0.95), delta1=polar(0.99), a=polar(0.9))
def test_the_second_derivative_disk_under_post_composition(z0, delta0, delta1, a):
    value, t1, t2 = post_composition(a, delta0)
    disk = second_derivative_disk(PrescribedData(z0, delta0, delta1))
    moved = second_derivative_disk(PrescribedData(z0, value, delta1 * t1 / abs(t1)))
    g1 = first_derivative(z0, delta0, delta1)
    assert_moved(moved, t1 * disk.center + t2 * g1 * g1, abs(t1) * disk.radius)
