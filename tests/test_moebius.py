import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskvar import moebius
from diskvar.functions import Bracket, Constant, Identity, MobiusT, PrescribedData, schur_parametrize
from diskvar.moebius import (
    DegeneracyError,
    Disk,
    DomainError,
    Jet2,
    PoleError,
    closed_disk_point,
    hyperbolic_bracket,
    jet_compose,
    jet_div,
    jet_mul,
    jet_scale,
    mobius_T,
    require_finite,
    require_real,
    unimodular_point,
    unit_disk_point,
)

TOL = 1e-12


def polar(max_modulus):
    return st.builds(
        lambda m, p: complex(m * math.cos(p), m * math.sin(p)),
        st.floats(min_value=0.0, max_value=max_modulus),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )


disk_pts = polar(0.95)
closed_pts = polar(1.0)


def test_mobius_spot_values():
    assert mobius_T(0.3, 0.0) == 0.3
    assert mobius_T(0.0, 0.5 + 0.1j) == 0.5 + 0.1j
    assert abs(mobius_T(0.5, 0.5) - 0.8) < TOL


def test_mobius_rejects_bad_a():
    with pytest.raises(DomainError):
        mobius_T(1.0, 0.0)
    with pytest.raises(DomainError):
        mobius_T(0.3, 1.5)


def test_require_finite_rejects_nan_inf():
    with pytest.raises(DomainError):
        require_finite(complex(float("nan"), 0.0))
    with pytest.raises(DomainError):
        require_finite(complex(0.0, float("inf")))


def test_require_real_refuses_non_reals_and_huge_integers():
    assert require_real(3, "x") == 3.0
    for bad in (10**400, -(10**400), float("nan"), True, "1"):
        with pytest.raises(DomainError, match="x must be a finite real number"):
            require_real(bad, "x")


def test_batches_are_checked_in_every_lane():
    inside = np.array([0.1, 0.5j, -0.9])
    assert (unit_disk_point(inside) == inside).all()
    assert (closed_disk_point(np.array([1.0, 0.5])) == [1.0, 0.5]).all()
    with pytest.raises(DomainError, match=r"\|z\| = 1.0"):
        unit_disk_point(np.array([0.1, 1.0, 0.2]))
    with pytest.raises(DomainError, match=r"\|z\| = 1.5"):
        closed_disk_point(np.array([0.1, 1.5j]))
    # a batch names its first bad lane, not its largest one
    with pytest.raises(DomainError, match=r"\|z\| = 1.2$"):
        unit_disk_point(np.array([0.1, 1.2, 1.5]))
    with pytest.raises(DomainError, match="finite components"):
        require_finite(np.array([0.1, complex(0.0, float("nan"))]))
    assert require_real(np.array([1, 2]), "x").dtype == float
    for bad in (np.array([1.0, float("inf")]), np.array([True, False]), np.array([1j])):
        with pytest.raises(DomainError, match="x must hold a finite real number in every lane"):
            require_real(bad, "x")
    with pytest.raises(DomainError):
        Bracket(np.array([0.5, 1.2]), Identity())
    with pytest.raises(DomainError):
        Disk(np.zeros(2), np.array([1.0, -1e-3]))
    assert (unimodular_point(np.array([1, 1j])) == [1, 1j]).all()
    with pytest.raises(DomainError, match=r"\|alpha\| = 0.5"):
        unimodular_point(np.array([1, 0.5]))
    # an empty batch is valid and stays empty
    empty = np.array([], dtype=complex)
    for fn in (require_finite, unit_disk_point, closed_disk_point, unimodular_point):
        assert fn(empty).shape == (0,)
    assert require_real(np.array([]), "x").shape == (0,)
    assert Disk(empty, np.array([])).radius.shape == (0,)
    assert jet_div(Jet2(empty, empty, empty), Jet2(empty, empty, empty)).f0.shape == (0,)
    # finite lanes whose modulus overflows to inf: the one-pass test cannot
    # accept them, the lane-wise fallback does
    huge = np.array([1e308 + 1e308j, 1.5e308 - 1.5e308j, 0.5])
    assert np.isinf(abs(huge[1]))
    assert (require_finite(huge) == huge).all()
    # a finite point whose x*x + y*y and modulus overflow is refused as |z| =
    # inf, as a lane with no numpy overflow warning and as a scalar with no
    # OverflowError from abs()
    for z in (np.array([1.5e308 + 1.5e308j, 0.1]), 1.5e308 + 1.5e308j):
        for fn, name in ((unit_disk_point, "z"), (closed_disk_point, "z"), (unimodular_point, "alpha")):
            with pytest.raises(DomainError, match=rf"\|{name}\| = inf$"):
                fn(z)


def test_batch_jets_match_scalar_jets():
    a = np.array([0.3 - 0.2j, -0.5j, 0.0])
    z = np.array([0.1 + 0.4j, 0.7, -0.2j])
    batch = MobiusT(a, Identity()).jet(z)
    for lane in range(3):
        scalar = MobiusT(complex(a[lane]), Identity()).jet(complex(z[lane]))
        assert all(abs(f[lane] - g) <= 1e-15 * (1.0 + abs(g)) for f, g in zip(batch, scalar))


def test_unimodular_point_renormalises():
    z = unimodular_point(cmath.exp(0.7j) * (1.0 + 3e-10))
    assert abs(abs(z) - 1.0) < 1e-15
    with pytest.raises(DomainError):
        unimodular_point(0.9)


@settings(max_examples=200, deadline=None)
@given(a=disk_pts, z=disk_pts)
def test_mobius_inverse_roundtrip(a, z):
    w = mobius_T(a, z)
    assert abs(w) < 1.0
    # T_a^{-1} = T_{-a}
    assert abs(mobius_T(-a, w) - z) < 1e-10


@settings(max_examples=200, deadline=None)
@given(a=disk_pts, phase=st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_mobius_preserves_circle(a, phase):
    z = cmath.exp(1j * phase)
    assert abs(abs(mobius_T(a, z)) - 1.0) < 1e-12


def test_bracket_spot_values():
    assert hyperbolic_bracket(0.3 + 0.4j, 0.3 + 0.4j) == 0.0
    # [z, z] = 0 holds even on the circle
    assert hyperbolic_bracket(cmath.exp(1j), cmath.exp(1j)) == 0.0
    assert hyperbolic_bracket(0.5, 0.0) == 0.5
    assert hyperbolic_bracket(0.0, 0.5) == -0.5


def test_bracket_refuses_unimodular_base():
    with pytest.raises(DomainError):
        hyperbolic_bracket(0.2, cmath.exp(0.3j))


def test_bracket_per_lane():
    # z == w gives 0 in its lane, on the circle too; other lanes are T_{-w}(z)
    z = np.array([0.3 + 0.4j, cmath.exp(1j), 0.5, 0.0, 1j])
    w = np.array([0.3 + 0.4j, cmath.exp(1j), 0.0, 0.5, 0.2 - 0.1j])
    batch = hyperbolic_bracket(z, w)
    assert batch.shape == (5,)
    for lane in range(5):
        assert batch[lane] == hyperbolic_bracket(complex(z[lane]), complex(w[lane]))
    assert hyperbolic_bracket(0.5, w[2:]).tolist() == [hyperbolic_bracket(0.5, complex(v)) for v in w[2:]]
    # a unimodular base point with z != w in any one lane is refused
    with pytest.raises(DomainError):
        hyperbolic_bracket(np.array([0.3 + 0.4j, 0.2]), np.array([0.3 + 0.4j, 1j]))


@pytest.mark.parametrize(
    "fn, z, w",
    [(mobius_T, -0.9999999999999999, 1.0000000000000002), (hyperbolic_bracket, 1.0000000000000002, 0.9999999999999998)],
)
def test_a_rounded_pole_is_a_pole_error(fn, z, w):
    # both arguments lie in their domains, yet 1 + conj(a) z rounds to 0
    with pytest.raises(PoleError):
        fn(z, w)
    with pytest.raises(PoleError):
        fn(np.array([z]), np.array([w]))


def _message(fn, *args):
    """The message of the DomainError ``fn(*args)`` raises, or None."""
    try:
        fn(*args)
    except DomainError as error:
        return str(error)
    return None


# points within a few ulps of the unit circle and of the closed disk's slack,
# where CPython's and numpy's moduli can round apart
near_circle = st.builds(
    lambda radius, ulps, phase: (radius + ulps * 2.0**-52) * complex(math.cos(phase), math.sin(phase)),
    st.sampled_from([1.0, 1.0 + 1e-12]),
    st.integers(-4, 4),
    st.floats(0.0, 2.0 * math.pi),
)


@settings(max_examples=500, deadline=None)
@given(
    z=near_circle,
    w=disk_pts,
    good=st.lists(disk_pts, min_size=1, max_size=6),
    at=st.integers(0, 6),
    bad=st.sampled_from([None, complex(math.nan, 0.0), complex(0.5, math.inf), complex(-math.inf, 0.0)]),
)
def test_scalar_and_lane_get_the_same_domain_verdict(z, w, good, at, bad):
    # the checks decide from x*x + y*y, which CPython and numpy round alike;
    # the moduli disagree on about a quarter of these points
    for fn, args in (
        (unit_disk_point, (z,)),
        (closed_disk_point, (z,)),
        (hyperbolic_bracket, (w, z)),
        (hyperbolic_bracket, (z, w)),
        (lambda d1: schur_parametrize(PrescribedData(0.3, 0.2, d1), Constant(0j)), (z,)),
    ):
        assert _message(fn, *args) == _message(fn, *(np.array([a]) for a in args))
    # a lane near the circle, or not finite, among good lanes: a batch gets
    # the verdict and the message of its first refused lane as a scalar
    lanes = list(good)
    lanes.insert(min(at, len(lanes)), z if bad is None else bad)
    for fn in (require_finite, unit_disk_point, closed_disk_point):
        refused = [m for m in (_message(fn, lane) for lane in lanes) if m is not None]
        assert _message(fn, np.array(lanes)) == (refused[0] if refused else None)


def test_a_unimodular_batch_passes_the_closed_check_in_one_pass(monkeypatch):
    circle = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 1001))

    def unreached(z):
        raise AssertionError("decided lane by lane")

    monkeypatch.setattr(moebius, "_modulus2", unreached)
    assert closed_disk_point(circle) is circle
    # either side of the one-pass bound, the check accepts
    below = np.nextafter(moebius._CLOSED_WELL_INSIDE, 0.0)
    assert closed_disk_point(np.array([below, 0.5j])).shape == (2,)
    monkeypatch.undo()
    above = np.nextafter(moebius._CLOSED_WELL_INSIDE, 2.0)
    assert closed_disk_point(np.array([above, 0.5j])).shape == (2,)


def test_lanes_at_the_closed_slack_get_their_scalar_verdicts():
    edge = 1.0 + moebius._CLOSED_SLACK
    radii = (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0))
    points = [r * cmath.exp(1j * phase) for r in radii for phase in (0.0, 0.3, math.pi / 4, 2.0)]
    verdicts = [_message(closed_disk_point, z) for z in points]
    assert verdicts[0] is None and verdicts[-1] is not None
    for z, verdict in zip(points, verdicts):
        assert _message(closed_disk_point, np.array([z])) == verdict
        assert _message(closed_disk_point, np.array([0.5, z, 0.9j])) == verdict


def test_bracket_base_on_the_circle_is_refused_in_a_lane_too():
    # CPython's |e^{0.3i}| is 1.0 and numpy's 1 - 1.1e-16: both are refused
    for w in (cmath.exp(0.3j), np.array([cmath.exp(0.3j)])):
        with pytest.raises(DomainError, match="bracket base point must satisfy"):
            hyperbolic_bracket(0.2, w)


@settings(max_examples=200, deadline=None)
@given(z=disk_pts, w=disk_pts)
def test_bracket_symmetric_modulus_and_contraction(z, w):
    zw = hyperbolic_bracket(z, w)
    wz = hyperbolic_bracket(w, z)
    assert abs(abs(zw) - abs(wz)) < 1e-12
    assert abs(zw) < 1.0
    # bracket inverts Moebius transport: T_w([z, w]... ) recovers z
    assert abs(mobius_T(w, zw) - z) < 1e-10


def test_disk_contains_and_margin():
    d = Disk(1.0 + 0j, 2.0)
    assert d.contains(2.9)
    assert not d.contains(3.1)
    assert d.contains(3.0)  # boundary is included
    assert not d.contains(3.0 + 1e-13)  # tol defaults to 0
    assert d.contains(3.0 + 1e-13, tol=1e-12)  # slack is relative: tol*(1 + radius)
    assert d.contains(3.2, tol=0.1)
    with pytest.raises(DomainError):
        d.contains(0.0, tol=-1e-9)
    with pytest.raises(DomainError):
        d.contains(0.0, tol=float("nan"))
    with pytest.raises(DomainError, match="tol must be a real number"):
        d.contains(0.0, tol="0.1")
    assert d.margin(1.0) == pytest.approx(2.0 / 3.0)
    assert d.margin(3.0) == pytest.approx(0.0, abs=1e-15)
    assert d.boundary_distance(3.5) == pytest.approx(0.5)
    assert d.boundary_distance(1.5) == pytest.approx(1.5)


def test_disk_degenerate_radius():
    d = Disk(0.2j, 0.0)
    assert d.contains(0.2j)
    assert not d.contains(0.2j + 1e-6)
    with pytest.raises(DomainError):
        Disk(0.0, -1e-3)
    for bad in ("0.5", True, float("inf")):
        with pytest.raises(DomainError, match="radius must be a finite real number"):
            Disk(0.0, bad)


def test_degeneracy_error_is_distinct():
    assert issubclass(DegeneracyError, ArithmeticError)
    assert not issubclass(DegeneracyError, DomainError)


# -- jets ----------------------------------------------------------------


def jets_close(a, b, tol=1e-12):
    return abs(a.f0 - b.f0) < tol and abs(a.f1 - b.f1) < tol and abs(a.f2 - b.f2) < tol


def test_jet_polynomial():
    # p(z) = (z + 2)(3z - 1): p' = 6z + 5, p'' = 6
    z = 0.4 + 0.1j
    # 3z - 1 = 3 (z - 1/3)
    p = jet_mul(Jet2(z + 2.0, 1.0 + 0j, 0j), jet_scale(3.0, Jet2(z - 1.0 / 3.0, 1.0 + 0j, 0j)))
    assert abs(p.f0 - (z + 2) * (3 * z - 1)) < TOL
    assert abs(p.f1 - (6 * z + 5)) < TOL
    assert abs(p.f2 - 6.0) < TOL


def test_jet_div_quotient_rule():
    # q(z) = z / (1 - z): q' = 1/(1-z)^2, q'' = 2/(1-z)^3
    z = 0.3 - 0.2j
    q = jet_div(Jet2(z, 1.0 + 0j, 0j), Jet2(1.0 - z, -1.0 + 0j, 0j))
    assert abs(q.f1 - 1.0 / (1 - z) ** 2) < TOL
    assert abs(q.f2 - 2.0 / (1 - z) ** 3) < TOL


def test_jet_div_by_zero_value():
    with pytest.raises(PoleError):
        jet_div(Jet2(1.0 + 0j, 1.0 + 0j, 0j), Jet2(0j, 0j, 0j))
    # one vanishing lane of a batch is a pole, too
    ones = np.ones(3, dtype=complex)
    with pytest.raises(PoleError):
        jet_div(Jet2(ones, ones, ones), Jet2(np.array([1.0, 0.0, 2.0]), ones, ones))


def test_jet_compose_chain_rule():
    # outer(w) = w^2 at w = inner value; inner(z) = 2z + 1
    z = 0.1 + 0.1j
    inner = jet_scale(2.0, Jet2(z + 0.5, 1.0 + 0j, 0j))
    w = inner.f0
    outer = jet_mul(Jet2(w, 1.0 + 0j, 0j), Jet2(w, 1.0 + 0j, 0j))
    composed = jet_compose(outer, inner)
    # h(z) = (2z+1)^2: h' = 4(2z+1), h'' = 8
    assert abs(composed.f0 - (2 * z + 1) ** 2) < TOL
    assert abs(composed.f1 - 4 * (2 * z + 1)) < TOL
    assert abs(composed.f2 - 8.0) < TOL


@settings(max_examples=200, deadline=None)
@given(a=disk_pts, z=disk_pts)
def test_jet_mobius_derivatives(a, z):
    # T_a' = (1 - |a|^2) / (1 + conj(a) z)^2, T_a'' = -2 conj(a) (1 - |a|^2) / (1 + conj(a) z)^3
    j = MobiusT(a, Identity()).jet(z)
    den = 1.0 + a.conjugate() * z
    assert abs(j.f0 - mobius_T(a, z)) < 1e-12
    assert abs(j.f1 - (1.0 - abs(a) ** 2) / den**2) < 1e-10
    assert abs(j.f2 - (-2.0 * a.conjugate() * (1.0 - abs(a) ** 2) / den**3)) < 1e-10


@settings(max_examples=200, deadline=None)
@given(w=disk_pts, z=disk_pts)
def test_jet_bracket_matches_mobius_identity(w, z):
    # [z, w] = T_{-w}(z)
    jb = Bracket(w, Identity()).jet(z)
    jm = MobiusT(-w, Identity()).jet(z)
    assert jets_close(jb, jm, 1e-11)
