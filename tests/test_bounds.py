import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskvar.bounds import (
    TABLE_CSV_HEADER,
    Branch,
    bound_comparison_table,
    branch_value,
    ruscheweyh_bound,
    szasz_bound,
    table_to_csv,
    theorem31_bound,
)
from diskvar.disks import schwarz_pick_disk
from diskvar.extremal import ExtremalKind, kind_spec
from diskvar.moebius import DomainError

TOL = 1e-12

radii = st.floats(min_value=0.0, max_value=0.99)


# The polynomials of the proof of the two-branch bound, kept here to check the
# closed forms against.


def psi(x, r, R):
    """Psi(x) = (R - 1) x^2 + r x + 1; |g''| <= 2(1-R^2) Psi(|delta1|) / (1-r^2)^2."""
    return (R - 1.0) * x * x + r * x + 1.0


def psi_argmax(r, R):
    """Unconstrained maximiser x* = r / (2 (1 - R)) of psi; the bound branches
    on whether x* reaches 1."""
    return r / (2.0 * (1.0 - R))


def phi_cubic(R, r):
    """phi(R) = -R^3 - r R^2 + r + R, the R-profile of the deg1 branch
    (up to the (1 - r^2)^2 denominator); phi(1) = 0 for every r."""
    return -(R**3) - r * R * R + r + R


def phi_cubic_critical(r):
    """Positive critical point R2 = 1 / (sqrt(3 + r^2) + r) of phi_cubic."""
    return 1.0 / (math.sqrt(3.0 + r * r) + r)


def phi_quadratic(R, r):
    """Phi(R) = -4R^2 + r^2 R + r^2 + 4, the R-profile of the deg2 branch;
    maximal at R = r^2/8 where Phi = (8 + r^2)^2 / 16."""
    return -4.0 * R * R + r * r * R + r * r + 4.0


def test_branch_selection():
    assert theorem31_bound(0.5, 0.25).branch is Branch.DEG2
    assert theorem31_bound(0.5, 0.9).branch is Branch.DEG1
    assert theorem31_bound(0.5, 0.0).branch is Branch.DEG2_ZERO
    # the seam r + 2R = 2 belongs to the first branch
    assert theorem31_bound(0.9, 0.55).branch is Branch.DEG1


def test_branch_spot_values():
    assert theorem31_bound(0.5, 0.25).value == pytest.approx(3.25 * 1.25 / 1.125, abs=TOL)
    assert theorem31_bound(0.5, 0.9).value == pytest.approx(0.532 / 0.5625, abs=TOL)
    assert theorem31_bound(0.5, 0.0).value == pytest.approx(4.25 / 1.125, abs=TOL)
    assert theorem31_bound(0.0, 0.0).value == pytest.approx(2.0, abs=TOL)
    assert szasz_bound(0.5).value == pytest.approx(3.78125, abs=TOL)
    assert szasz_bound(0.9).value == pytest.approx(67.188452216066482, rel=1e-12)
    assert ruscheweyh_bound(2, 0.5, 0.0).value == pytest.approx(16.0 / 3.0, abs=TOL)
    assert ruscheweyh_bound(1, 0.5, 0.0).value == pytest.approx(4.0 / 3.0, abs=TOL)


def test_out_of_range_inputs():
    with pytest.raises(DomainError):
        theorem31_bound(1.0, 0.5)
    with pytest.raises(DomainError):
        theorem31_bound(0.5, 1.0)
    with pytest.raises(DomainError):
        theorem31_bound(-0.1, 0.5)
    with pytest.raises(DomainError):
        szasz_bound(float("nan"))
    # bools and strings are refused, not converted
    for args in ((False, 0.25), (0.5, "0.25")):
        with pytest.raises(DomainError, match="must be a finite real number"):
            theorem31_bound(*args)
    with pytest.raises(DomainError, match="r must be a finite real number"):
        szasz_bound("0.5")
    with pytest.raises(DomainError, match="R must be a finite real number"):
        ruscheweyh_bound(2, 0.5, True)
    with pytest.raises(DomainError, match=r"r must lie in \[0, 1\), got 1.5"):
        theorem31_bound(1.5, 0.25)
    with pytest.raises(DomainError):
        ruscheweyh_bound(3, 0.5, 0.0)


@settings(max_examples=300, deadline=None)
@given(R=st.floats(min_value=0.0, max_value=0.999))
def test_branches_agree_on_the_seam(R):
    r = 2.0 - 2.0 * R
    if not (0.0 < r < 1.0):
        return
    a = branch_value(Branch.DEG1, r, R)
    b = branch_value(Branch.DEG2, r, R)
    assert abs(a - b) < 1e-12 * max(1.0, a)


def test_deg2_zero_is_deg2_limit():
    for r in (0.0, 0.3, 0.7):
        assert branch_value(Branch.DEG2_ZERO, r) == pytest.approx(branch_value(Branch.DEG2, r, 0.0), abs=TOL)


@settings(max_examples=200, deadline=None)
@given(r=radii, R=radii)
def test_bound_dominates_alternatives(r, R):
    t = theorem31_bound(r, R).value
    assert t <= ruscheweyh_bound(2, r, R).value + 1e-12
    assert t <= szasz_bound(r).value + 1e-9


@settings(max_examples=200, deadline=None)
@given(r=radii, R=radii, x=st.floats(min_value=0.0, max_value=1.0))
def test_psi_argmax_maximises(r, R, x):
    xs = psi_argmax(r, R)
    assert psi(xs, r, R) >= psi(x, r, R) - 1e-12


def test_psi_spot_values():
    assert psi(0.0, 0.5, 0.25) == 1.0
    assert psi(1.0, 0.5, 0.25) == pytest.approx(0.75, abs=TOL)
    assert psi_argmax(0.5, 0.25) == pytest.approx(1.0 / 3.0, abs=TOL)


def test_branch_split_matches_psi_argmax():
    # deg1 is active exactly when the unconstrained maximiser reaches 1
    for r, R in ((0.5, 0.9), (0.9, 0.55), (0.5, 0.25), (0.1, 0.9)):
        active = theorem31_bound(r, R).branch
        if psi_argmax(r, R) >= 1.0:
            assert active is Branch.DEG1
        else:
            assert active is not Branch.DEG1


def test_phi_cubic_root_at_one():
    for r in (0.0, 0.3, 0.99):
        assert phi_cubic(1.0, r) == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(r=radii, R=st.floats(min_value=0.0, max_value=1.0))
def test_phi_cubic_nonnegative_inside(r, R):
    assert phi_cubic(R, r) >= -1e-12


def test_phi_cubic_critical_point():
    for r in (0.1, 0.5, 0.9):
        R2 = phi_cubic_critical(r)
        assert 0.0 < R2 < 1.0
        h = 1e-7
        slope = (phi_cubic(R2 + h, r) - phi_cubic(R2 - h, r)) / (2 * h)
        assert abs(slope) < 1e-6
    assert phi_cubic_critical(0.5) == pytest.approx(0.43425854591066488, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(r=radii, R=st.floats(min_value=0.0, max_value=1.0))
def test_phi_quadratic_peak(r, R):
    # the quadratic is maximised at R = r^2 / 8 with value (8 + r^2)^2 / 16
    peak = (8.0 + r * r) ** 2 / 16.0
    assert phi_quadratic(R, r) <= peak + 1e-12
    assert phi_quadratic(r * r / 8.0, r) == pytest.approx(peak, rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(r=radii)
def test_szasz_is_deg2_at_optimal_R(r):
    assert szasz_bound(r).value == pytest.approx(branch_value(Branch.DEG2, r, r * r / 8.0), rel=1e-13)


@settings(max_examples=100, deadline=None)
@given(r=radii, R=radii)
def test_ruscheweyh_n1_is_schwarz_pick_radius(r, R):
    assert ruscheweyh_bound(1, r, R).value == pytest.approx(schwarz_pick_disk(complex(r), complex(R)).radius, rel=1e-13)


# the parameters of the functions attaining each branch come from the sharp
# kinds of diskvar.extremal, as (values, names of the free values)


def test_deg1_extremal_params():
    p, free = kind_spec(ExtremalKind.SHARP_DEG1).params(0.5 + 0j, 0.9 + 0j)
    assert p["theta"] == pytest.approx(math.pi, abs=TOL)
    assert abs(p["a"]) < 1.0
    assert p["a"] == pytest.approx((0.5 + 0.9) / (0.5 * 1.45) * 0.5, abs=TOL)
    assert free == ()


def test_deg1_extremal_params_rotate_with_the_data():
    z0 = 0.5 * cmath.exp(0.8j)
    d0 = 0.9 * cmath.exp(-0.3j)
    p, _ = kind_spec(ExtremalKind.SHARP_DEG1).params(z0, d0)
    assert p["theta"] == pytest.approx(cmath.phase(-z0.conjugate() * d0), abs=TOL)
    assert abs(p["a"]) == pytest.approx(1.4 / 1.45, abs=TOL)
    assert cmath.phase(p["a"]) == pytest.approx(0.8, abs=TOL)


def test_deg2_extremal_params():
    deg2_params = kind_spec(ExtremalKind.SHARP_DEG2).params
    p, free = deg2_params(0.5 + 0j, 0.25 + 0j)
    assert abs(p["alpha"]) == pytest.approx(1.0, abs=TOL)
    assert abs(p["delta1"]) == pytest.approx(0.5 / (2.0 * 0.75), abs=TOL)
    assert free == ()
    p, free = deg2_params(0.5 + 0j, 0j)
    assert "alpha" in free
    assert abs(p["delta1"]) == pytest.approx(0.25, abs=TOL)


def test_comparison_table_and_csv():
    rows = bound_comparison_table((0.1, 0.5), (0.0, 0.5))
    assert len(rows) == 4
    assert all(row.dominates for row in rows)
    assert {row.branch for row in rows} == {"deg2-zero", "deg2"}
    text = table_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == TABLE_CSV_HEADER
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == 0.1 and float(first[1]) == 0.0
    assert float(first[2]) == pytest.approx(rows[0].thm31, abs=0)
    # emission is deterministic
    assert table_to_csv(bound_comparison_table((0.1, 0.5), (0.0, 0.5))) == text
