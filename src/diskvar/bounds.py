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

import math
from enum import Enum
from typing import NamedTuple

from .moebius import DomainError, _any_lane, _lane, _refuse_batch, _same_lanes, require_int, require_real

__all__ = [
    "Branch",
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


class BoundResult(NamedTuple):
    value: float
    branch: Branch


def _check_rR(r, R):
    """r and R as floats, each in [0, 1); lane-wise for a batch."""
    r, R = _unit_interval(r, "r"), _unit_interval(R, "R")
    _same_lanes(r, R)
    return r, R


def _unit_interval(x, name):
    """x as a float in [0, 1), or as floats in [0, 1) for a batch."""
    x = require_real(x, name)
    out = (x < 0.0) | (x >= 1.0)
    if _any_lane(out):
        raise DomainError(f"{name} must lie in [0, 1), got {_lane(x, out)}")
    return x


def branch_value(branch, r, R=0.0):
    """Closed-form value of one branch, ignoring which branch is active; one
    value per lane when r or R is a batch."""
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
    raise DomainError(f"unknown branch {branch!r}")


def theorem31_bound(r, R):
    """Sharp bound for |g''(z0)| given the magnitudes r = |z0| and R = |g(z0)|.

    Returns the value and the active branch.  The functions that attain it
    depend on the phases of z0 and g(z0) as well; ``diskvar.extremal`` derives
    their parameters.  r and R are scalars: the branch is chosen per call
    (``branch_value`` takes lanes).
    """
    _refuse_batch(r, "r", "theorem31_bound", "branch_value")
    _refuse_batch(R, "R", "theorem31_bound", "branch_value")
    r, R = _check_rR(r, R)
    if r + 2.0 * R >= 2.0:
        return BoundResult(branch_value(Branch.DEG1, r, R), Branch.DEG1)
    if R == 0.0:
        return BoundResult(branch_value(Branch.DEG2_ZERO, r), Branch.DEG2_ZERO)
    return BoundResult(branch_value(Branch.DEG2, r, R), Branch.DEG2)


def szasz_bound(r):
    """Sharp bound for |g''(z0)| over all self-maps, r = |z0|: the maximum of
    the two-parameter bound over R, attained at R = r^2/8 (the extremal's
    overall rotation is free)."""
    r, _ = _check_rR(r, 0.0)
    return BoundResult(branch_value(Branch.SZASZ, r), Branch.SZASZ)


def ruscheweyh_bound(n, r, R):
    """|g^(n)(z0)| <= n! (1 - R^2) / ((1 - r)^n (1 + r)) for n in {1, 2}."""
    if require_int(n, "n", minimum=1) not in (1, 2):
        raise DomainError("ruscheweyh_bound is implemented for n in {1, 2}")
    r, R = _check_rR(r, R)
    value = math.factorial(n) * (1.0 - R * R) / ((1.0 - r) ** n * (1.0 + r))
    return BoundResult(value, Branch.RUSCHEWEYH)


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


def _grid(values, name):
    """The values of a grid, as a list; a grid that is not a sequence is
    refused."""
    try:
        return list(values)
    except TypeError:
        raise DomainError(f"{name} must be a sequence of numbers, got {values!r}") from None


def bound_comparison_table(r_grid, R_grid):
    """Cross-tabulate the sharp bound against the Ruscheweyh and Szasz bounds.

    ``dominates`` records thm31 <= min(other bounds) + 1e-12; it holds on the
    whole parameter square and is re-checked by the tests.
    """
    rows = []
    R_grid = _grid(R_grid, "R_grid")
    for r in _grid(r_grid, "r_grid"):
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
