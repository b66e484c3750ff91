import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskvar.bounds import Branch, branch_value
from diskvar.disks import (
    dieudonne_disk,
    schwarz_pick_disk,
    second_derivative_disk,
    second_order_dieudonne_disk,
)
from diskvar.extremal import (
    AttainmentReport,
    ExtremalKind,
    branch_bound_for,
    kind_spec,
    make_extremal,
    verify_attainment,
)
from diskvar.functions import PrescribedData, eval_jet
from diskvar.moebius import DomainError

TOL = 1e-12


def polar(max_modulus):
    return st.builds(
        lambda m, p: complex(m * math.cos(p), m * math.sin(p)),
        st.floats(min_value=0.0, max_value=max_modulus),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )


phases = st.floats(min_value=0.0, max_value=2.0 * math.pi)


def test_missing_parameters_are_reported():
    with pytest.raises(DomainError, match="schwarz-pick requires parameter alpha"):
        make_extremal(ExtremalKind.SCHWARZ_PICK, z0=0.3, delta0=0.1)
    with pytest.raises(DomainError, match="requires parameter w0"):
        make_extremal(ExtremalKind.DIEUDONNE, z0=0.3, alpha=1.0)


def test_parameters_the_kind_does_not_take_are_refused():
    with pytest.raises(DomainError, match="szasz does not take parameter alpha"):
        make_extremal(ExtremalKind.SZASZ, z0=0.5, alpha=5.0)
    with pytest.raises(DomainError, match="schwarz-pick does not take parameter theta"):
        make_extremal(ExtremalKind.SCHWARZ_PICK, z0=0.3, delta0=0.1, alpha=1.0, theta=0.0)
    # theta defaults to 0 for the kinds that take it
    assert make_extremal(ExtremalKind.SZASZ, z0=0.5) == make_extremal(ExtremalKind.SZASZ, z0=0.5, theta=0.0)


def test_batched_parameters_are_checked_per_lane():
    z0 = np.array([0.5, 0.4j])
    w0 = np.array([0.25, 0.1j])
    delta1 = np.array([1, 1j])
    batch = make_extremal(ExtremalKind.DIEUDONNE2_DEGENERATE, z0=z0, w0=w0, delta1=delta1).jet(z0)
    for lane in range(2):
        scalar = make_extremal(
            ExtremalKind.DIEUDONNE2_DEGENERATE, z0=complex(z0[lane]), w0=complex(w0[lane]), delta1=complex(delta1[lane])
        ).jet(complex(z0[lane]))
        assert all(abs(f[lane] - g) <= 1e-15 * (1.0 + abs(g)) for f, g in zip(batch, scalar))
    with pytest.raises(DomainError, match=r"requires \|w0\| < \|z0\|"):
        make_extremal(ExtremalKind.DIEUDONNE, z0=z0, w0=np.array([0.25, 0.5]), alpha=np.ones(2))
    with pytest.raises(DomainError, match="delta1 must be unimodular"):
        make_extremal(ExtremalKind.SECOND_DEGENERATE, z0=z0, delta0=np.zeros(2), delta1=np.array([1, 0.5]))


def test_kind_accepts_plain_strings():
    g = make_extremal("schwarz-pick", z0=0.3, delta0=0.1, alpha=1.0)
    assert eval_jet(g, 0.3 + 0j).f0 == pytest.approx(0.1, abs=TOL)


@settings(max_examples=100, deadline=None)
@given(z0=polar(0.9), d0=polar(0.9), phase=phases)
def test_schwarz_pick_extremal_on_boundary(z0, d0, phase):
    alpha = cmath.exp(1j * phase)
    g = make_extremal(ExtremalKind.SCHWARZ_PICK, z0=z0, delta0=d0, alpha=alpha)
    jet = eval_jet(g, z0)
    disk = schwarz_pick_disk(z0, d0)
    assert abs(jet.f0 - d0) < 1e-12
    assert disk.boundary_distance(jet.f1) < 1e-11


def test_schwarz_pick_interior_alpha_is_interior():
    g = make_extremal(ExtremalKind.SCHWARZ_PICK, z0=0.3, delta0=0.1, alpha=0.5)
    disk = schwarz_pick_disk(0.3, 0.1)
    assert disk.margin(eval_jet(g, 0.3 + 0j).f1) > 0.1


@settings(max_examples=100, deadline=None)
@given(z0=polar(0.9), d0=polar(0.9), d1_phase=phases)
def test_second_degenerate_hits_the_center(z0, d0, d1_phase):
    d1 = cmath.exp(1j * d1_phase)
    g = make_extremal(ExtremalKind.SECOND_DEGENERATE, z0=z0, delta0=d0, delta1=d1)
    disk = second_derivative_disk(PrescribedData(z0, d0, d1))
    # |e^{i phase}| carries one ulp of noise, so the radius only collapses to ~1e-13
    assert disk.radius < 1e-12
    assert abs(eval_jet(g, z0).f2 - disk.center) < 1e-10


def test_second_degenerate_requires_unimodular_delta1():
    with pytest.raises(DomainError):
        make_extremal(ExtremalKind.SECOND_DEGENERATE, z0=0.3, delta0=0.1, delta1=0.5)


@settings(max_examples=100, deadline=None)
@given(z0=polar(0.85), d0=polar(0.85), d1=polar(0.9), phase=phases)
def test_second_boundary_extremal(z0, d0, d1, phase):
    alpha = cmath.exp(1j * phase)
    g = make_extremal(ExtremalKind.SECOND_BOUNDARY, z0=z0, delta0=d0, delta1=d1, alpha=alpha)
    data = PrescribedData(z0, d0, d1)
    jet = eval_jet(g, z0)
    disk = second_derivative_disk(data)
    assert abs(jet.f0 - d0) < 1e-11
    hyp = jet.f1 * (1.0 - abs(z0) ** 2) / (1.0 - abs(d0) ** 2)
    assert abs(hyp - d1) < 1e-9
    assert disk.boundary_distance(jet.f2) < 1e-9 * (1.0 + disk.radius)


def test_dieudonne_extremal_boundary_and_interior():
    disk = dieudonne_disk(0.5, 0.25)
    for k in range(8):
        alpha = cmath.exp(2j * math.pi * k / 8)
        f = make_extremal(ExtremalKind.DIEUDONNE, z0=0.5, w0=0.25, alpha=alpha)
        jet = eval_jet(f, 0.5 + 0j)
        assert abs(jet.f0 - 0.25) < TOL
        assert disk.boundary_distance(jet.f1) < 1e-12
    f = make_extremal(ExtremalKind.DIEUDONNE, z0=0.5, w0=0.25, alpha=0j)
    assert abs(eval_jet(f, 0.5 + 0j).f1 - disk.center) < TOL


@settings(max_examples=60, deadline=None)
@given(z0=polar(0.85), ratio=polar(0.85), d1=polar(0.9), phase=phases)
def test_dieudonne2_boundary_extremal(z0, ratio, d1, phase):
    if abs(z0) < 1e-3:
        z0 = z0 + 0.5
    w0 = ratio * z0
    alpha = cmath.exp(1j * phase)
    f = make_extremal(ExtremalKind.DIEUDONNE2_BOUNDARY, z0=z0, w0=w0, delta1=d1, alpha=alpha)
    w1, region = second_order_dieudonne_disk(z0, w0, d1)
    jet = eval_jet(f, z0)
    assert abs(jet.f0 - w0) < 1e-11
    assert abs(jet.f1 - w1) < 1e-9 * (1.0 + abs(w1))
    assert region.boundary_distance(jet.f2) < 1e-9 * (1.0 + region.radius)


def test_dieudonne2_degenerate_extremal():
    d1 = cmath.exp(0.9j)
    f = make_extremal(ExtremalKind.DIEUDONNE2_DEGENERATE, z0=0.4, w0=0.1j, delta1=d1)
    w1, region = second_order_dieudonne_disk(0.4, 0.1j, d1)
    jet = eval_jet(f, 0.4 + 0j)
    assert region.radius == 0.0
    assert abs(jet.f1 - w1) < 1e-12
    assert abs(jet.f2 - region.center) < 1e-10


def test_sharp_deg1_attains_its_branch():
    for (r, R) in ((0.5, 0.9), (0.9, 0.55), (0.7, 0.7)):
        g = make_extremal(ExtremalKind.SHARP_DEG1, z0=complex(r), delta0=complex(R))
        jet = eval_jet(g, complex(r))
        assert abs(jet.f0 - R) < 1e-12
        assert abs(abs(jet.f2) - branch_value(Branch.DEG1, r, R)) < 1e-10


def test_sharp_deg1_complex_data():
    z0 = 0.5 * cmath.exp(1.1j)
    d0 = 0.9 * cmath.exp(-0.4j)
    g = make_extremal(ExtremalKind.SHARP_DEG1, z0=z0, delta0=d0)
    jet = eval_jet(g, z0)
    assert abs(jet.f0 - d0) < 1e-12
    assert abs(abs(jet.f2) - branch_value(Branch.DEG1, 0.5, 0.9)) < 1e-10


def test_sharp_deg1_rejects_origin():
    with pytest.raises(DomainError):
        make_extremal(ExtremalKind.SHARP_DEG1, z0=0j, delta0=0.5)


def test_sharp_deg1_refuses_a_zero_rounded_onto_the_circle_in_any_lane():
    # |a| = (r + R) / (1 + r R) rounds to 1 at r = 1 - 2^-53
    message = "sharp-deg1 zero a must lie in the open unit disk"
    with pytest.raises(DomainError, match=message):
        make_extremal(ExtremalKind.SHARP_DEG1, z0=0.9999999999999999, delta0=0.5)
    with pytest.raises(DomainError, match=message):
        make_extremal(ExtremalKind.SHARP_DEG1, z0=np.array([0.5, 0.9999999999999999]), delta0=np.array([0.25, 0.5]))
    make_extremal(ExtremalKind.SHARP_DEG1, z0=np.array([0.5, 0.9]), delta0=np.array([0.25, 0.5]))


def test_sharp_deg2_attains_its_branch():
    for (r, R) in ((0.5, 0.25), (0.3, 0.5), (0.1, 0.9)):
        g = make_extremal(ExtremalKind.SHARP_DEG2, z0=complex(r), delta0=complex(R))
        jet = eval_jet(g, complex(r))
        assert abs(jet.f0 - R) < 1e-12
        assert abs(abs(jet.f2) - branch_value(Branch.DEG2, r, R)) < 1e-10


def test_sharp_deg2_zero_R_family():
    for theta in (0.0, 1.3, 4.0):
        g = make_extremal(ExtremalKind.SHARP_DEG2, z0=0.5 + 0j, delta0=0j, theta=theta)
        jet = eval_jet(g, 0.5 + 0j)
        assert abs(jet.f0) < 1e-12
        assert abs(abs(jet.f2) - branch_value(Branch.DEG2_ZERO, 0.5)) < 1e-10


def test_sharp_deg2_at_origin():
    # z0 = 0, R > 0: T_{d0}(alpha z^2) with free rotation
    g = make_extremal(ExtremalKind.SHARP_DEG2, z0=0j, delta0=0.35 + 0j, theta=0.7)
    jet = eval_jet(g, 0j)
    assert abs(jet.f0 - 0.35) < TOL
    assert abs(jet.f1) < TOL
    assert abs(abs(jet.f2) - branch_value(Branch.DEG2, 0.0, 0.35)) < 1e-11


def test_sharp_deg2_rejects_deg1_region():
    with pytest.raises(DomainError):
        make_extremal(ExtremalKind.SHARP_DEG2, z0=0.9 + 0j, delta0=0.9 + 0j)


def test_szasz_extremal():
    for r in (0.25, 0.5, 0.9):
        z0 = r * cmath.exp(0.4j)
        g = make_extremal(ExtremalKind.SZASZ, z0=z0, theta=1.1)
        jet = eval_jet(g, z0)
        assert abs(abs(jet.f0) - r * r / 8.0) < 1e-12
        assert abs(abs(jet.f2) - branch_value(Branch.SZASZ, r)) < 1e-9
        # the attained second derivative points along e^{i theta}
        assert cmath.phase(jet.f2) == pytest.approx(1.1, abs=1e-9)


def test_szasz_extremal_at_origin():
    g = make_extremal(ExtremalKind.SZASZ, z0=0j, theta=0.3)
    jet = eval_jet(g, 0j)
    assert jet.f0 == 0j and abs(jet.f1) < TOL
    assert abs(jet.f2 - 2.0 * cmath.exp(0.3j)) < TOL


_SHARP_DATA = {
    ExtremalKind.SHARP_DEG1: [(0.5, 0.9), (0.9, 0.55), (0.3 * cmath.exp(1.1j), 0.9 * cmath.exp(-0.4j)), (0.4, 0.0)],
    # generic, z0 = 0, delta0 = 0 and both 0: the three cases of the parameters
    ExtremalKind.SHARP_DEG2: [(0.5, 0.25), (0.3 * cmath.exp(1.1j), -0.2 + 0.4j), (0.0, 0.35), (0.5j, 0.0), (0.0, 0.0)],
    ExtremalKind.SZASZ: [(0.0, None), (0.5 * cmath.exp(0.4j), None), (0.9, None)],
}


@pytest.mark.parametrize("kind", list(_SHARP_DATA))
def test_sharp_kinds_per_lane(kind):
    spec = kind_spec(kind)
    points = [{"z0": complex(z0)} | ({} if d0 is None else {"delta0": complex(d0)}) for z0, d0 in _SHARP_DATA[kind]]
    lanes = {name: np.array([point[name] for point in points]) for name in points[0]}
    free = {"theta": np.linspace(0.0, 2.0, len(points))} if spec.free else {}
    # a batch mixing every case gives each lane its scalar extremal's jet and bound
    jet = make_extremal(kind, **lanes, **free).jet(lanes["z0"])
    bounds = spec.target(**lanes)
    values, _ = spec.params(**lanes, **free)
    for lane, point in enumerate(points):
        given = point | {name: float(v[lane]) for name, v in free.items()}
        scalar = make_extremal(kind, **given).jet(point["z0"])
        assert all(abs(f[lane] - g) <= 1e-14 * (1.0 + abs(g)) for f, g in zip(jet, scalar))
        assert bounds[lane] == spec.target(**point)
        expected, _ = spec.params(**given)
        for name, value in expected.items():
            assert abs(values[name][lane] - value) <= 1e-15 * (1.0 + abs(value))


# scalar data with lanes of a free value, and lanes of data with a scalar one:
# (kind, data, free, the names of the parameters that come back as lanes,
# whether the tree's jet does).  Each value is a lane only where the
# argument it is computed from is one.
_THETAS = np.array([0.0, 1.3])
_MIXED = [
    ("sharp-deg1", {"z0": 0.5 + 0j, "delta0": np.array([0.25, 0.5j])}, {}, {"theta", "a"}, True),
    ("sharp-deg1", {"z0": np.array([0.5, 0.3j]), "delta0": 0.25 + 0j}, {}, {"theta", "a"}, True),
    # delta0 = 0 fixes theta at 0 whatever z0 is
    ("sharp-deg1", {"z0": np.array([0.5, 0.3j]), "delta0": 0j}, {}, {"a"}, True),
    # z0, delta0 != 0: the values are fixed, and one tree serves every theta
    ("sharp-deg2", {"z0": 0.5 + 0j, "delta0": 0.25 + 0j}, {"theta": _THETAS}, set(), False),
    ("sharp-deg2", {"z0": 0j, "delta0": 0.35 + 0j}, {"theta": _THETAS}, {"theta", "alpha"}, True),
    ("sharp-deg2", {"z0": 0.5j, "delta0": 0j}, {"theta": _THETAS}, {"delta1", "alpha"}, True),
    (
        "sharp-deg2", {"z0": np.array([0.5, 0j, 0.5j]), "delta0": np.array([0.25, 0.35, 0j])},
        {"theta": 0.7}, {"theta", "delta1", "alpha"}, True,
    ),
    (
        "sharp-deg2", {"z0": np.array([0.5, 0j]), "delta0": 0.35 + 0j},
        {"theta": 0.7}, {"theta", "delta1", "alpha"}, True,
    ),
    ("szasz", {"z0": 0.5 + 0j}, {"theta": _THETAS}, {"theta"}, True),
    ("szasz", {"z0": 0j}, {"theta": _THETAS}, {"theta"}, True),
    ("szasz", {"z0": np.array([0.5, 0.9j])}, {"theta": 1.1}, set(), True),
]


@pytest.mark.parametrize("kind, data, free, lane_names, lane_jet", _MIXED)
def test_mixed_scalar_and_lane_arguments(kind, data, free, lane_names, lane_jet):
    spec = kind_spec(kind)
    values, _ = spec.params(**data, **free)
    n = max(np.size(v) for v in (*data.values(), *free.values()))
    assert {name: np.shape(v) for name, v in values.items()} == {
        name: (n,) if name in lane_names else () for name in values
    }
    jet = make_extremal(kind, **data, **free).jet(data["z0"])
    assert [np.shape(f) for f in jet] == [(n,) if lane_jet else ()] * 3
    for lane in range(n):
        given = {name: complex(v[lane]) if np.ndim(v) else v for name, v in data.items()}
        given |= {name: float(v[lane]) if np.ndim(v) else v for name, v in free.items()}
        # each lane gets its scalar call's values; a value no lane moves is
        # that scalar value, bit for bit
        expected, _ = spec.params(**given)
        for name, value in expected.items():
            if name in lane_names:
                assert abs(values[name][lane] - value) <= 1e-15 * (1.0 + abs(value))
            else:
                assert values[name] == value
        scalar = make_extremal(kind, **given).jet(given["z0"])
        for f, g in zip(jet, scalar):
            if lane_jet:
                assert abs(f[lane] - g) <= 1e-14 * (1.0 + abs(g))
            else:
                assert f == g


def test_sharp_params_keep_their_free_names():
    deg2 = kind_spec(ExtremalKind.SHARP_DEG2).params
    assert deg2(0.5 + 0j, 0.25 + 0j)[1] == ()
    assert deg2(0j, 0.25 + 0j)[1] == ("theta", "alpha")
    # a scalar delta0 = 0 reports alpha alone, as the CLI prints it
    values, free = deg2(0.5 + 0j, 0j)
    assert free == ("alpha",) and "theta" not in values
    # a batch reports the free names of any of its lanes
    assert deg2(np.array([0.5, 0.3]), np.array([0.25, 0.1]))[1] == ()
    assert deg2(np.array([0.5, 0.3]), np.array([0.25, 0.0]))[1] == ("theta", "alpha")


def test_the_deg1_zero_is_rounded_once_in_a_lane():
    # a last-bit error in a moves |g''| by ~1e10 times as much at r = R = 0.99999
    z0, d0 = complex(0.99999), complex(0.99999)
    a = kind_spec(ExtremalKind.SHARP_DEG1).params(z0, d0)[0]["a"]
    lanes = kind_spec(ExtremalKind.SHARP_DEG1).params(np.array([z0]), np.array([d0]))[0]["a"]
    assert lanes[0] == a


def test_branch_bound_for():
    assert branch_bound_for(ExtremalKind.SHARP_DEG1, 0.5 + 0j, 0.9 + 0j) == pytest.approx(
        branch_value(Branch.DEG1, 0.5, 0.9), abs=TOL
    )
    assert branch_bound_for(ExtremalKind.SHARP_DEG2, 0.5 + 0j, 0j) == pytest.approx(
        branch_value(Branch.DEG2_ZERO, 0.5), abs=TOL
    )
    assert branch_bound_for(ExtremalKind.SZASZ, 0.5 + 0j) == pytest.approx(3.78125, abs=TOL)
    with pytest.raises(DomainError):
        branch_bound_for(ExtremalKind.SCHWARZ_PICK, 0.5 + 0j, 0j)


def test_verify_attainment_against_disk():
    disk = second_derivative_disk(PrescribedData(0.4, 0.2, 0.3))
    report = verify_attainment(
        ExtremalKind.SECOND_BOUNDARY,
        {"z0": 0.4, "delta0": 0.2, "delta1": 0.3, "alpha": 1.0},
        1e-9,
    )
    assert isinstance(report, AttainmentReport)
    assert report.passed
    assert report.distance < 1e-11
    assert report.target == f"boundary of disk(center={disk.center!r}, radius={disk.radius!r})"


def test_verify_attainment_against_bound():
    value = branch_bound_for(ExtremalKind.SZASZ, 0.5 + 0j)
    report = verify_attainment(ExtremalKind.SZASZ, {"z0": 0.5}, 1e-8)
    assert report.passed
    assert report.target == f"bound {value!r}"
    # an interior alpha lands strictly inside the disk: the check does not pass
    report = verify_attainment(ExtremalKind.SCHWARZ_PICK, {"z0": 0.3, "delta0": 0.1, "alpha": 0.5}, 1e-8)
    assert not report.passed


def test_verify_attainment_rejects_negative_tol():
    with pytest.raises(DomainError):
        verify_attainment(ExtremalKind.SZASZ, {"z0": 0.5}, -1e-3)
    with pytest.raises(DomainError, match="tol must be non-negative"):
        verify_attainment(ExtremalKind.SZASZ, {"z0": 0.5}, float("nan"))
    with pytest.raises(DomainError, match="tol must be a real number"):
        verify_attainment(ExtremalKind.SZASZ, {"z0": 0.5}, "0.1")


def test_theta_must_be_a_finite_real():
    for bad in ("abc", float("inf"), float("nan"), True, 1j, 10**400):
        with pytest.raises(DomainError, match="theta must be a finite real number"):
            make_extremal(ExtremalKind.SZASZ, z0=0.5, theta=bad)
    # checked on the sharp-deg2 branches that do not use theta, too
    with pytest.raises(DomainError, match="theta must be a finite real number"):
        make_extremal(ExtremalKind.SHARP_DEG2, z0=0.5, delta0=0.25, theta=float("inf"))
