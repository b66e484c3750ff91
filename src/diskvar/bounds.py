"""Sharp bounds for |g''(z0)| over self-maps of the disk with |g(z0)| = R.

The two-parameter bound splits at r + 2R = 2 (r = |z0|):

  * r + 2R >= 2: 2 (1 - R^2) (r + R) / (1 - r^2)^2, attained by a degree-1
    Blaschke product ("deg1" branch);
  * r + 2R < 2: (1 + R) (4 - 4R + r^2) / (2 (1 - r^2)^2), attained by a
    degree-2 rational ("deg2" branch; "deg2-zero" flags the R = 0 case where
    the extremal is any suitably rotated degree-2 Blaschke product).

Maximising over R gives the Szasz bound (8 + r^2)^2 / (32 (1 - r^2)^2) at
R = r^2/8.  The Ruscheweyh bound n! (1 - R^2) / ((1 - r)^n (1 + r)) is kept
for comparison; the branch bounds never exceed it.
"""

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .moebius import DomainError, require_finite

__all__ = [
    "Branch",
    "ExtremalParams",
    "BoundResult",
    "branch_value",
    "theorem31_bound",
    "szasz_bound",
    "ruscheweyh_bound",
    "TableRow",
    "bound_comparison_table",
    "table_to_csv",
    "TABLE_CSV_HEADER",
]


class Branch(str, Enum):
    """Which closed form produced a bound value."""

    DEG1 = "deg1"
    DEG2 = "deg2"
    DEG2_ZERO = "deg2-zero"
    SZASZ = "szasz"
    RUSCHEWEYH = "ruscheweyh"


@dataclass(frozen=True)
class ExtremalParams:
    """Parameters pinning down a function that attains a bound.

    Fields are None when they do not apply.  ``alpha_arbitrary`` means any
    unimodular alpha works (with the matching delta1 phase);
    ``theta_arbitrary`` means the overall rotation is free.
    """

    theta: float | None = None
    a: complex | None = None
    delta1: complex | None = None
    alpha: complex | None = None
    alpha_arbitrary: bool = False
    theta_arbitrary: bool = False


@dataclass(frozen=True)
class BoundResult:
    value: float
    branch: Branch
    extremal: ExtremalParams | None = None


def _check_rR(r, R):
    r = float(r)
    if not (math.isfinite(r) and 0.0 <= r < 1.0):
        raise DomainError(f"r must lie in [0, 1), got {r}")
    R = float(R)
    if not (math.isfinite(R) and 0.0 <= R < 1.0):
        raise DomainError(f"R must lie in [0, 1), got {R}")
    return r, R


def branch_value(branch, r, R=0.0):
    """Closed-form value of one branch, ignoring which branch is active."""
    r, R = _check_rR(r, R)
    one = (1.0 - r * r) ** 2
    if branch is Branch.DEG1:
        return 2.0 * (1.0 - R * R) * (r + R) / one
    if branch is Branch.DEG2:
        return (1.0 + R) * (4.0 - 4.0 * R + r * r) / (2.0 * one)
    if branch is Branch.DEG2_ZERO:
        return (4.0 + r * r) / (2.0 * one)
    if branch is Branch.SZASZ:
        return (8.0 + r * r) ** 2 / (32.0 * one)
    if branch is Branch.RUSCHEWEYH:
        return 2.0 * (1.0 - R * R) / ((1.0 - r) ** 2 * (1.0 + r))
    raise DomainError(f"unknown branch {branch!r}")


def _resolve_point(r, R, z0, delta0):
    """Canonical complex data (z0, delta0) for the magnitudes (r, R)."""
    if z0 is None:
        z0 = complex(r)
    else:
        z0 = require_finite(z0, "z0")
        if abs(abs(z0) - r) > 1e-9 * (1.0 + r):
            raise DomainError(f"|z0| = {abs(z0)} does not match r = {r}")
    if delta0 is None:
        delta0 = complex(R)
    else:
        delta0 = require_finite(delta0, "delta0")
        if abs(abs(delta0) - R) > 1e-9 * (1.0 + R):
            raise DomainError(f"|delta0| = {abs(delta0)} does not match R = {R}")
    return z0, delta0


def theorem31_bound(r, R, z0=None, delta0=None):
    """Sharp bound for |g''(z0)| given |z0| = r and |g(z0)| = R.

    Optional complex z0/delta0 (consistent with r, R) rotate the reported
    extremal parameters; otherwise the positive-real representatives are used.
    """
    r, R = _check_rR(r, R)
    z0, delta0 = _resolve_point(r, R, z0, delta0)
    if r + 2.0 * R >= 2.0:
        # here r, R > 0 automatically
        theta = cmath.phase(-z0.conjugate() * delta0)
        a = (r + R) * z0 / (r * (1.0 + r * R))
        return BoundResult(
            branch_value(Branch.DEG1, r, R),
            Branch.DEG1,
            ExtremalParams(theta=theta, a=a),
        )
    if R == 0.0:
        # any |delta1| = r/2 works, paired with the aligned unimodular alpha
        return BoundResult(
            branch_value(Branch.DEG2_ZERO, r),
            Branch.DEG2_ZERO,
            ExtremalParams(delta1=z0 / 2.0, alpha_arbitrary=True),
        )
    # phase-wise forms; products like conj(z0) * delta0 / (z0 R) underflow
    # for tiny r, R even though the results have moduli r/(2(1-R)) and 1
    phase_z0 = cmath.phase(z0)
    phase_d0 = cmath.phase(delta0)
    delta1 = -(r / (2.0 * (1.0 - R))) * cmath.exp(1j * (phase_d0 - phase_z0))
    if r == 0.0:
        extremal = ExtremalParams(delta1=delta1, alpha_arbitrary=True, theta_arbitrary=True)
    else:
        extremal = ExtremalParams(
            theta=cmath.phase(-cmath.exp(1j * (phase_d0 - 2.0 * phase_z0))),
            delta1=delta1,
            alpha=-cmath.exp(1j * (phase_d0 - 2.0 * phase_z0)),
        )
    return BoundResult(branch_value(Branch.DEG2, r, R), Branch.DEG2, extremal)


def szasz_bound(r, z0=None):
    """Sharp bound for |g''(z0)| over all self-maps, |z0| = r: the maximum of
    the two-parameter bound over R, attained at R = r^2/8 with a free overall
    rotation."""
    r, _ = _check_rR(r, 0.0)
    _resolve_point(r, 0.0, z0, None)  # consistency check only
    return BoundResult(
        branch_value(Branch.SZASZ, r),
        Branch.SZASZ,
        ExtremalParams(theta_arbitrary=True),
    )


def ruscheweyh_bound(n, r, R):
    """|g^(n)(z0)| <= n! (1 - R^2) / ((1 - r)^n (1 + r)) for n in {1, 2}."""
    if n not in (1, 2):
        raise DomainError("ruscheweyh_bound is implemented for n in {1, 2}")
    r, R = _check_rR(r, R)
    value = math.factorial(n) * (1.0 - R * R) / ((1.0 - r) ** n * (1.0 + r))
    return BoundResult(value, Branch.RUSCHEWEYH, None)


class TableRow(NamedTuple):
    r: float
    R: float
    thm31: float
    ruscheweyh2: float
    szasz: float
    branch: str
    dominates: bool


TABLE_CSV_HEADER = "r,R,thm31,ruscheweyh2,szasz,branch"

# slack for the domination flag; the branch bounds tie with Ruscheweyh at r = 0
_DOMINATION_SLACK = 1e-12


def bound_comparison_table(r_grid, R_grid):
    """Cross-tabulate the sharp bound against the Ruscheweyh and Szasz bounds.

    ``dominates`` records thm31 <= min(other bounds) + 1e-12; it holds on the
    whole parameter square and is re-checked by the tests.
    """
    rows = []
    for r in r_grid:
        for R in R_grid:
            t = theorem31_bound(r, R)
            rw = ruscheweyh_bound(2, r, R).value
            sz = szasz_bound(r).value
            rows.append(
                TableRow(
                    float(r),
                    float(R),
                    t.value,
                    rw,
                    sz,
                    t.branch.value,
                    t.value <= min(rw, sz) + _DOMINATION_SLACK,
                )
            )
    return rows


def table_to_csv(rows):
    lines = [TABLE_CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.r!r},{row.R!r},{row.thm31!r},{row.ruscheweyh2!r},{row.szasz!r},{row.branch}"
        )
    return "\n".join(lines) + "\n"
