import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskvar.disks import (
    DerivativePair,
    dieudonne_disk,
    max_attaining_alpha,
    mercer_disk,
    peschl_pair,
    rogosinski_disk,
    schwarz_pick_disk,
    second_derivative_disk,
    second_order_dieudonne_disk,
)
from diskvar.extremal import make_extremal
from diskvar.functions import (
    Bracket,
    Constant,
    Identity,
    MobiusT,
    PrescribedData,
    Product,
    dieudonne_parametrize,
    eval_jet,
    schur_parametrize,
)
from diskvar.moebius import DegeneracyError, DomainError

TOL = 1e-12


def polar(max_modulus):
    return st.builds(
        lambda m, p: complex(m * math.cos(p), m * math.sin(p)),
        st.floats(min_value=0.0, max_value=max_modulus),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )


def test_schwarz_pick_spot_values():
    d = schwarz_pick_disk(0.0, 0.0)
    assert d.center == 0.0 and d.radius == 1.0
    assert schwarz_pick_disk(0.5, 0.3).radius == pytest.approx(0.91 / 0.75, abs=TOL)
    assert schwarz_pick_disk(0.5, 0.0).radius == pytest.approx(4.0 / 3.0, abs=TOL)
    assert schwarz_pick_disk(0.5, 0.3).center == 0.0


def test_rogosinski_spot_values():
    d = rogosinski_disk(0.0, 0.7j)
    assert d.center == 0.0 and d.radius == 0.0
    d = rogosinski_disk(0.5, 0.0)
    assert d.center == 0.0 and d.radius == pytest.approx(0.25, abs=TOL)
    d = rogosinski_disk(0.5, 0.5)
    assert d.center == pytest.approx(0.2, abs=TOL)
    assert d.radius == pytest.approx(0.2, abs=TOL)


def test_mercer_spot_values():
    # the value at z0 itself is pinned to w0, and at 0 it is pinned to 0
    d = mercer_disk(0.5, 0.25, 0.5)
    assert abs(d.center - 0.25) < TOL and d.radius < TOL
    d = mercer_disk(0.5, 0.25, 0.0)
    assert abs(d.center) < TOL and d.radius < TOL
    d = mercer_disk(0.5, 0.0, 0.25)
    assert abs(d.center) < TOL
    assert d.radius == pytest.approx(1.0 / 14.0, abs=TOL)
    d = mercer_disk(0.5, 0.25, 0.8)
    assert d.center == pytest.approx(0.32, abs=TOL)
    assert d.radius == pytest.approx(0.32, abs=TOL)


def test_mercer_limits_to_rogosinski():
    # as z0 -> 0 with w0 = c*z0 the two-point region becomes Rogosinski's
    z0, c, z = 1e-6, 0.5 + 0.2j, 0.3 - 0.4j
    m = mercer_disk(z0, c * z0, z)
    r = rogosinski_disk(z, c)
    assert abs(m.center - r.center) < 1e-5
    assert abs(m.radius - r.radius) < 1e-5


@settings(max_examples=100, deadline=None)
@given(z0=polar(0.9), ratio=polar(0.95), z=polar(0.9), alpha=polar(0.9))
def test_mercer_membership(z0, ratio, z, alpha):
    if abs(z0) < 1e-3:
        z0 = z0 + 0.5
    w0 = ratio * z0
    f = dieudonne_parametrize(z0, w0, Constant(alpha))
    region = mercer_disk(z0, w0, z)
    assert region.margin(f.value(z)) > -1e-11


def test_dieudonne_spot_values():
    d = dieudonne_disk(0.5, 0.0)
    assert d.center == 0.0
    assert d.radius == pytest.approx(2.0 / 3.0, abs=TOL)
    d = dieudonne_disk(0.5, 0.25)
    assert d.center == pytest.approx(0.5, abs=TOL)
    assert d.radius == pytest.approx(0.5, abs=TOL)
    d = dieudonne_disk(0.9, 0.81)
    assert d.center == pytest.approx(0.9, abs=TOL)
    assert d.radius == pytest.approx(0.9, abs=TOL)


def test_dieudonne_radius_is_attained():
    # f(z) = z [z, z0] fixes 0 and z0 and has f'(z0) = z0 / (1 - |z0|^2),
    # a boundary point of the w0 = 0 disk; no smaller radius is possible
    z0 = 0.5
    f = Product(Identity(), Bracket(z0, Identity()))
    jet = eval_jet(f, complex(z0))
    d = dieudonne_disk(z0, 0.0)
    assert abs(jet.f1 - 2.0 / 3.0) < TOL
    assert d.boundary_distance(jet.f1) < TOL


def test_dieudonne_rejects_bad_data():
    with pytest.raises(DomainError):
        dieudonne_disk(0.5, 0.5)
    with pytest.raises(DomainError):
        dieudonne_disk(0.0, 0.0)
    # |z0|^2 below the smallest normal double: the closed forms divide by it
    for z0 in (1e-200, 1e-160j, 1.4e-154):
        with pytest.raises(DomainError, match="normal double"):
            dieudonne_disk(z0, 0.0)
        with pytest.raises(DomainError, match="normal double"):
            second_order_dieudonne_disk(z0, 0.0, 0.5)
    with pytest.raises(DomainError, match="normal double"):
        dieudonne_disk(np.array([0.5, 1e-200]), np.array([0.25, 0.0]))
    assert dieudonne_disk(1.5e-154, 0.0).radius == pytest.approx(1.5e-154, rel=1e-15)


def test_dieudonne_and_mercer_decide_the_disk_as_the_validators_do():
    # x*x + y*y rounds to 1 here; CPython's |z0| does too, but numpy's is
    # 0.9999999999999999, which once let a batch lane through with radius ~4e15
    z0 = 0.8310965479008089 + 0.5561281579522462j
    for point in (z0, np.array([z0])):
        with pytest.raises(DomainError, match="z0 must lie in the open unit disk"):
            dieudonne_disk(point, 0.0)
        with pytest.raises(DomainError, match="z0 must lie in the open unit disk"):
            mercer_disk(point, 0.0, 0.5)
        with pytest.raises(DomainError, match="z0 must lie in the open unit disk"):
            second_order_dieudonne_disk(point, 0.0, 0.5)


def test_mercer_takes_every_z0_the_validators_accept():
    # x*x + y*y < 1 here although |z0| rounds to 1; Mercer's formulas never
    # divide by 1 - |z0|^2, so the disk is finite, as a scalar and as a lane
    z0 = 0.8827680124242574 - 0.46980914874076907j
    scalar = mercer_disk(z0, 0.3, 0.5)
    batch = mercer_disk(np.array([z0]), np.array([0.3 + 0j]), np.array([0.5 + 0j]))
    assert math.isfinite(abs(scalar.center)) and math.isfinite(scalar.radius)
    assert (batch.center[0], batch.radius[0]) == (scalar.center, scalar.radius)


def _verdict(fn, *args):
    """None, or the DomainError ``fn(*args)`` raises without the modulus it
    names, which CPython and numpy may round apart."""
    try:
        fn(*args)
    except DomainError as error:
        return str(error).split(", |")[0]
    return None


# |w0|^2 - |z0|^2 is -1.6e-17 and -9.3e-17: CPython's moduli refuse the first
# pair and numpy's the second.  Their u0 = w0/z0 rounds onto the circle, where
# the trees refuse it as a Moebius parameter.
@pytest.mark.parametrize(
    "z0, w0",
    [
        (0.25837681224850667 + 0.35207914286288444j, 0.33065679416362737 - 0.285279484751701j),
        (0.40967934471621015 + 0.492045450102321j, -0.5829583887596517 - 0.26477425748786404j),
    ],
)
def test_w0_just_inside_z0_gets_one_verdict_as_a_scalar_and_a_lane(z0, w0):
    forms = [
        lambda z0, w0: dieudonne_disk(z0, w0),
        lambda z0, w0: mercer_disk(z0, w0, 0.2 + 0.1j),
        lambda z0, w0: second_order_dieudonne_disk(z0, w0, 0.3),
    ]
    trees = [
        lambda z0, w0: dieudonne_parametrize(z0, w0, Constant(0.5)),
        lambda z0, w0: make_extremal("dieudonne", z0=z0, w0=w0, alpha=1j),
        lambda z0, w0: make_extremal("dieudonne2-degenerate", z0=z0, w0=w0, delta1=1j),
        lambda z0, w0: make_extremal("dieudonne2-boundary", z0=z0, w0=w0, delta1=0.3, alpha=1j),
    ]
    for fn in forms + trees:
        assert _verdict(fn, z0, w0) == _verdict(fn, np.array([z0]), np.array([w0]))
    # |w0| < |z0| holds, so the closed forms accept both as a scalar and a lane
    for fn in forms:
        assert _verdict(fn, z0, w0) is None


def test_closed_forms_take_an_empty_batch():
    e = np.array([], dtype=complex)
    assert schwarz_pick_disk(e, e).radius.shape == (0,)  # its center is the scalar 0
    for disk in (
        second_derivative_disk(PrescribedData(e, e, e)),
        dieudonne_disk(e, e),
        mercer_disk(e, e, e),
        rogosinski_disk(e, e),
        second_order_dieudonne_disk(e, e, e).region,
    ):
        assert disk.center.shape == disk.radius.shape == (0,)


def test_second_derivative_disk_spot_values():
    d = second_derivative_disk(PrescribedData(0.5, 0.3, 0.2))
    assert d.center == pytest.approx(0.28472888888888889, abs=TOL)
    assert d.radius == pytest.approx(3.1061333333333333, abs=TOL)
    # unimodular delta1 collapses the region to a point
    d = second_derivative_disk(PrescribedData(0.3, 0.2, 1.0))
    assert d.radius == 0.0
    assert d.center == pytest.approx(0.23185605603188021, abs=TOL)


def test_second_derivative_disk_at_origin():
    # z0 = 0: center -2 (1 - |d0|^2) conj(d0) d1^2, radius 2 (1 - |d0|^2)(1 - |d1|^2)
    d = second_derivative_disk(PrescribedData(0.0, 0.4, 0.5j))
    assert abs(d.center - (-2.0 * 0.84 * 0.4 * (0.5j) ** 2)) < TOL
    assert d.radius == pytest.approx(2.0 * 0.84 * 0.75, abs=TOL)


@settings(max_examples=100, deadline=None)
@given(z0=polar(0.9), d0=polar(0.9), d1=polar(0.95), alpha=polar(0.95))
def test_second_derivative_membership(z0, d0, d1, alpha):
    data = PrescribedData(z0, d0, d1)
    g = schur_parametrize(data, Constant(alpha))
    region = second_derivative_disk(data)
    assert region.margin(eval_jet(g, z0).f2) > -1e-10


@settings(max_examples=100, deadline=None)
@given(z0=polar(0.9), d0=polar(0.9), d1=polar(0.95))
def test_center_is_the_zero_parameter_value(z0, d0, d1):
    # g* = 0 lands exactly on the center
    data = PrescribedData(z0, d0, d1)
    g = schur_parametrize(data, Constant(0j))
    region = second_derivative_disk(data)
    assert abs(eval_jet(g, z0).f2 - region.center) < 1e-9 * (1.0 + region.radius)


def test_modulus_max_and_attaining_alpha():
    data = PrescribedData(0.4, 0.3, 0.5j)
    region = second_derivative_disk(data)
    top = abs(region.center) + region.radius
    alpha = max_attaining_alpha(data)
    g = schur_parametrize(data, Constant(alpha))
    assert abs(abs(eval_jet(g, 0.4 + 0j).f2) - top) < 1e-12


def test_attaining_alpha_is_free_when_center_vanishes():
    # delta1 = 0 gives c2 = 0: every unimodular alpha attains |c2| + rho2
    data = PrescribedData(0.4, 0.3, 0.0)
    assert max_attaining_alpha(data) is None
    region = second_derivative_disk(data)
    for k in range(6):
        alpha = cmath.exp(2j * math.pi * k / 6)
        g = schur_parametrize(data, Constant(alpha))
        second = eval_jet(g, 0.4 + 0j).f2
        assert abs(abs(second) - (abs(region.center) + region.radius)) < 1e-12


def test_attaining_alpha_per_lane():
    d1 = [0.5j, 0.0, -0.3 + 0.2j, 0.9]
    batch = max_attaining_alpha(PrescribedData(0.4, 0.3, np.array(d1)))
    assert batch.shape == (4,)
    for lane, delta1 in enumerate(d1):
        scalar = max_attaining_alpha(PrescribedData(0.4, 0.3, delta1))
        if scalar is None:
            assert cmath.isnan(batch[lane])
        else:
            assert abs(batch[lane] - scalar) <= 1e-15


def test_second_order_dieudonne_spot_values():
    w1, region = second_order_dieudonne_disk(0.5, 0.25, 0.3)
    assert w1 == pytest.approx(0.65, abs=TOL)
    assert region.center == pytest.approx(0.74, abs=TOL)
    assert region.radius == pytest.approx(1.2133333333333333, abs=TOL)
    # w1 sits on the first-order structure: center + rho1 * r * d1 / conj(z0)
    first = dieudonne_disk(0.5, 0.25)
    assert abs(w1 - (first.center + first.radius * 0.5 * 0.3 / 0.5)) < TOL


def test_second_order_dieudonne_degenerate():
    w1, region = second_order_dieudonne_disk(0.5, 0.25, cmath.exp(0.3j))
    assert region.radius == 0.0
    assert abs(w1 - dieudonne_disk(0.5, 0.25).center) <= dieudonne_disk(0.5, 0.25).radius + 1e-12


@settings(max_examples=100, deadline=None)
@given(z0=polar(0.9), ratio=polar(0.9), d1=polar(0.95), alpha=polar(0.9))
def test_second_order_dieudonne_membership(z0, ratio, d1, alpha):
    if abs(z0) < 1e-3:
        z0 = z0 + 0.5
    w0 = ratio * z0
    w1, region = second_order_dieudonne_disk(z0, w0, d1)
    # zero-fixing functions through w0 whose inner factor has hyperbolic
    # derivative delta1 at z0: their f'(z0) is pinned to w1
    fstar = MobiusT(d1, Product(Constant(alpha), MobiusT(-z0, Identity())))
    f = dieudonne_parametrize(z0, w0, fstar)
    jet = eval_jet(f, z0)
    assert abs(jet.f1 - w1) < 1e-9 * (1.0 + abs(w1))
    assert region.margin(jet.f2) > -1e-9


def test_a_delta1_lane_rounded_past_the_circle_gives_radius_zero():
    # |delta1|^2 = 1 + 2^-51 in the first lane: the radius is +0.0, not negative
    d1 = np.array([1.0 + 2.0**-52, 0.5j, cmath.exp(0.3j)])
    batch = [second_derivative_disk(PrescribedData(0.3, 0.2, d1)), second_order_dieudonne_disk(0.3, 0.1, d1).region]
    scalar = [second_derivative_disk(PrescribedData(0.3, 0.2, 1.0 + 2.0**-52)),
              second_order_dieudonne_disk(0.3, 0.1, 1.0 + 2.0**-52).region]
    for lanes, one in zip(batch, scalar):
        assert lanes.radius[0] == one.radius == 0.0
        assert not np.signbit(lanes.radius[0]) and math.copysign(1.0, one.radius) == 1.0
        assert lanes.radius[1] > 0.0


def test_second_order_data_validation():
    assert second_order_dieudonne_disk(0.5, 0.25, 0.3).w1 == pytest.approx(0.65, abs=TOL)
    with pytest.raises(DomainError):
        second_order_dieudonne_disk(0.5, 0.6, 0.3)  # |w0| >= |z0|


def test_peschl_pair_automorphism():
    # degree-1 Blaschke: |D1| = 1 and D2 = 0
    g = MobiusT(0.3 + 0.2j, Identity())
    pair = peschl_pair(g, 0.1 - 0.4j)
    assert abs(abs(pair.d1) - 1.0) < 1e-12
    assert abs(pair.d2) < 1e-12
    assert isinstance(pair, DerivativePair)


def test_peschl_pair_degenerate():
    with pytest.raises(DegeneracyError):
        peschl_pair(Constant(cmath.exp(0.3j)), 0.2)


def test_peschl_pair_takes_a_scalar_z0():
    with pytest.raises(DomainError, match="peschl_pair takes a scalar z0, not a batch"):
        peschl_pair(MobiusT(0.3 + 0.2j, Identity()), np.array([0.1, 0.2]))


def test_peschl_pair_refuses_a_tree_of_lanes():
    with pytest.raises(DomainError, match="peschl_pair takes a scalar g, not a batch"):
        peschl_pair(MobiusT(np.array([0.1, 0.2]), Identity()), 0.3)


def test_hyperbolic_d1_matches_definition():
    g = Product(Identity(), Identity())
    z0 = 0.3 + 0.2j
    jet = eval_jet(g, z0)
    expect = (1.0 - abs(z0) ** 2) * jet.f1 / (1.0 - abs(jet.f0) ** 2)
    assert abs(peschl_pair(g, z0).d1 - expect) < TOL


@settings(max_examples=100, deadline=None)
@given(z0=polar(0.85), a=polar(0.9))
def test_yamashita_inequality_degree_two(z0, a):
    g = Product(Identity(), MobiusT(a, Identity()))
    pair = peschl_pair(g, z0)
    assert abs(pair.d2) <= 2.0 * (1.0 - abs(pair.d1) ** 2) + 1e-10
