"""Constructors for the functions that attain each variability-disk boundary
and each sharp bound, plus a small attainment checker.

Every constructor returns a ``FunctionExpr`` tree, so extremal functions can
be evaluated, differentiated via jets, serialized, and fed back through the
same machinery the harness uses for random samples.

``KINDS`` is the one table of what an extremal kind is: its parameters with
their validators, its constructor, the target it attains, the jet component
that lands on the target, the bound branches it attains, the grid the
attainment suite sweeps and, for the sharp kinds, the one function that
derives the extremal's parameters.
"""

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import product
from typing import Callable, NamedTuple

from .bounds import Branch, branch_value
from .disks import (
    dieudonne_disk,
    max_attaining_alpha,
    schwarz_pick_disk,
    second_derivative_disk,
    second_order_dieudonne_disk,
)
from .functions import (
    Bracket,
    Compose,
    Constant,
    Identity,
    MobiusT,
    PrescribedData,
    Product,
    Rotation,
    eval_jet,
)
from .moebius import (
    Disk,
    DomainError,
    closed_disk_point,
    require_finite,
    require_real,
    unimodular_point,
    unit_disk_point,
)

__all__ = ["ExtremalKind", "make_extremal", "AttainmentReport", "verify_attainment"]


class ExtremalKind(Enum):
    """Which boundary or bound the constructed function attains."""

    SCHWARZ_PICK = "schwarz-pick"
    DIEUDONNE = "dieudonne"
    SECOND_DEGENERATE = "second-degenerate"
    SECOND_BOUNDARY = "second-boundary"
    DIEUDONNE2_DEGENERATE = "dieudonne2-degenerate"
    DIEUDONNE2_BOUNDARY = "dieudonne2-boundary"
    SHARP_DEG1 = "sharp-deg1"
    SHARP_DEG2 = "sharp-deg2"
    SZASZ = "szasz"


def _u(z0):
    """The normalising substitution u = T_{-z0}(z)."""
    return MobiusT(-z0, Identity())


def _one_step(z0, delta0, alpha):
    """T_{delta0}(alpha u): value delta0 at z0, hyperbolic derivative alpha."""
    return MobiusT(delta0, Product(Constant(alpha), _u(z0)))


def _two_step(z0, delta0, delta1, alpha):
    """T_{delta0}(u T_{delta1}(alpha u)): value delta0 and hyperbolic
    derivative delta1 at z0; alpha moves g''(z0) over its disk."""
    u = _u(z0)
    return MobiusT(delta0, Product(u, MobiusT(delta1, Product(Constant(alpha), u))))


def _deg1_params(z0, delta0):
    """Rotation theta and zero a of the deg1 extremal e^{i theta} [a, z];
    none of its values is free."""
    r, R = abs(z0), abs(delta0)
    if r == 0.0:
        raise DomainError("sharp-deg1 requires z0 != 0")
    theta = cmath.phase(-z0.conjugate() * delta0) if delta0 != 0 else 0.0
    return {"theta": theta, "a": (r + R) * z0 / (r * (1.0 + r * R))}, ()


def _sharp_deg1(z0, delta0):
    params, _ = _deg1_params(z0, delta0)
    return Rotation(params["theta"], Bracket(params["a"], Identity()))


def _deg2_params(z0, delta0, theta=0.0):
    """delta1 and alpha of the deg2 extremal T_{delta0}(u T_{delta1}(alpha u)),
    with the names of the values a free rotation ``theta`` moves."""
    r, R = abs(z0), abs(delta0)
    if r + 2.0 * R >= 2.0:
        raise DomainError("sharp-deg2 requires |z0| + 2|delta0| < 2")
    if R > 0.0 and r > 0.0:
        # phase-wise: the product forms underflow for tiny r, R
        rel = cmath.phase(delta0) - cmath.phase(z0)
        delta1 = -(r / (2.0 * (1.0 - R))) * cmath.exp(1j * rel)
        alpha = -cmath.exp(1j * (rel - cmath.phase(z0)))
        return {"theta": cmath.phase(alpha), "delta1": delta1, "alpha": alpha}, ()
    alpha = cmath.exp(1j * theta)
    if R > 0.0:
        # z0 = 0: T_{delta0}(alpha z^2) with a free rotation
        return {"theta": theta, "delta1": 0j, "alpha": alpha}, ("theta", "alpha")
    # delta0 = 0: any |delta1| = r/2 with the phase-matched alpha
    return {"delta1": alpha * z0 / 2.0, "alpha": alpha}, ("alpha",)


def _sharp_deg2(z0, delta0, theta):
    """Compose(G, u) with G(u) = T_{delta0}(u T_{delta1}(alpha u)), the
    degree-2 rational attaining the deg2 branch bound."""
    params, _ = _deg2_params(z0, delta0, theta)
    ident = Identity()
    inner = MobiusT(params["delta1"], Product(Constant(params["alpha"]), ident))
    return Compose(MobiusT(delta0, Product(ident, inner)), _u(z0))


def _szasz_params(z0, theta=0.0):
    """The szasz extremal's overall rotation theta, which is free."""
    return {"theta": theta}, ("theta",)


def _szasz(z0, theta):
    r = abs(z0)
    if r == 0.0:
        return Rotation(theta, Product(Identity(), Identity()))
    R = r * r / 8.0
    delta0 = R * cmath.exp(1j * (theta - cmath.phase(-z0.conjugate() ** 2)))
    return _sharp_deg2(z0, delta0, theta)


def _second_disk(z0, delta0, delta1):
    return second_derivative_disk(PrescribedData(z0, delta0, delta1))


def _deg2_bound(z0, delta0):
    r, R = abs(z0), abs(delta0)
    if R == 0.0:
        return branch_value(Branch.DEG2_ZERO, r)
    return branch_value(Branch.DEG2, r, R)


class GridPoint(NamedTuple):
    """One data point of an attainment grid, with its target computed once.

    ``rows`` holds ``(free, pins)`` pairs.  The extremal built from ``data``
    and the ``free`` values must put its probe on ``target`` (strictly inside
    the target disk when ``inside``), and each pin maps the same jet to a
    distance that must vanish as well.
    """

    data: dict
    target: object
    rows: tuple
    inside: bool = False


_Z0_GRID = (0j, 0.4 + 0j, 0.3 + 0.45j, -0.62 + 0.1j)
_D0_GRID = (0j, 0.35 + 0j, -0.2 + 0.4j)
_D1_GRID = (0j, 0.3 + 0j, 0.5j, -0.4 + 0.35j)
_U0_GRID = (0j, 0.5 + 0j, -0.3 + 0.2j)
_RR_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def _roots_of_unity(n):
    return tuple(complex(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n))


_ALPHAS = tuple({"alpha": alpha} for alpha in _roots_of_unity(16))
_ALPHA_ROWS = tuple((free, ()) for free in _ALPHAS)
_UNIMODULAR_GRID = _roots_of_unity(8)
_INTERIOR_ALPHA = 0.99 * complex(math.cos(0.7), math.sin(0.7))
# the rotated copy of each sharp grid point
_Z0_TURN = complex(math.cos(0.6), math.sin(0.6))
_D0_TURN = complex(math.cos(-1.2), math.sin(-1.2))


def _schwarz_pick_grid():
    for z0, d0 in product(_Z0_GRID, _D0_GRID):
        yield GridPoint({"z0": z0, "delta0": d0}, schwarz_pick_disk(z0, d0), _ALPHA_ROWS)


def _dieudonne_grid():
    for z0, u0 in product(_Z0_GRID[1:], _U0_GRID):
        w0 = u0 * z0
        yield GridPoint({"z0": z0, "w0": w0}, dieudonne_disk(z0, w0), _ALPHA_ROWS)


def _second_degenerate_grid():
    for z0, d0, d1 in product(_Z0_GRID, _D0_GRID, _UNIMODULAR_GRID):
        data = {"z0": z0, "delta0": d0, "delta1": d1}
        yield GridPoint(data, _second_disk(z0, d0, d1), (({}, ()),))


def _second_boundary_grid():
    for z0, d0, d1 in product(_Z0_GRID, _D0_GRID, _D1_GRID):
        data = {"z0": z0, "delta0": d0, "delta1": d1}
        prescribed = PrescribedData(z0, d0, d1)
        disk = second_derivative_disk(prescribed)
        yield GridPoint(data, disk, _ALPHA_ROWS)
        best = max_attaining_alpha(prescribed)
        if best is not None:
            # the aligned alpha puts g''(z0) on the circle |w| = max |g''(z0)|
            top = Disk(0j, abs(disk.center) + disk.radius)
            yield GridPoint(data, top, (({"alpha": best}, ()),))
        yield GridPoint(data, disk, (({"alpha": _INTERIOR_ALPHA}, ()),), inside=True)


def _dieudonne2_grid(d1_grid, frees):
    for z0, u0, d1 in product(_Z0_GRID[1:], _U0_GRID, d1_grid):
        w0 = u0 * z0
        w1, disk = second_order_dieudonne_disk(z0, w0, d1)
        # f'(z0) = w1 whatever the free values: checked once, on the last extremal
        pinned = (lambda jet, w1=w1: abs(jet.f1 - w1),)
        rows = tuple((free, ()) for free in frees[:-1]) + ((frees[-1], pinned),)
        yield GridPoint({"z0": z0, "w0": w0, "delta1": d1}, disk, rows)


def _sharp_points(pairs):
    """(z0, delta0) with moduli (r, R), real and rotated, for each pair."""
    for r, R in pairs:
        yield complex(r), complex(R)
        yield r * _Z0_TURN, R * _D0_TURN


def _sharp_deg1_grid():
    for z0, d0 in _sharp_points(product(_RR_GRID, _RR_GRID)):
        pinned = (lambda jet, d0=d0: abs(jet.f0 - d0),)
        bound = branch_bound_for(ExtremalKind.SHARP_DEG1, z0, d0)
        yield GridPoint({"z0": z0, "delta0": d0}, bound, (({}, pinned),))


def _sharp_deg2_grid():
    pairs = ((r, R) for r, R in product(_RR_GRID, (0.0,) + _RR_GRID) if r + 2.0 * R < 2.0)
    for z0, d0 in _sharp_points(pairs):
        pinned = (lambda jet, R=abs(d0): abs(abs(jet.f0) - R),)
        bound = branch_bound_for(ExtremalKind.SHARP_DEG2, z0, d0)
        yield GridPoint({"z0": z0, "delta0": d0}, bound, (({}, pinned),))
    for R in (0.35, 0.6):
        # z0 = 0: the rotation theta is free
        bound = branch_bound_for(ExtremalKind.SHARP_DEG2, 0j, complex(R))
        rows = (({"theta": 0.0}, ()), ({"theta": 1.3}, ()))
        yield GridPoint({"z0": 0j, "delta0": complex(R)}, bound, rows)


def _szasz_grid():
    for r in (0.0, 0.25, 0.5, 0.75, 0.9):
        z0 = r * complex(math.cos(0.4), math.sin(0.4)) if r else 0j
        pinned = (lambda jet, R=r * r / 8.0: abs(abs(jet.f0) - R),)
        rows = (({"theta": 0.0}, pinned), ({"theta": 1.1}, pinned))
        yield GridPoint({"z0": z0}, branch_bound_for(ExtremalKind.SZASZ, z0), rows)


@dataclass(frozen=True)
class KindSpec:
    """Everything diskvar knows about one extremal kind.

    ``data`` and ``free`` list ``(name, validator)`` pairs in validation
    order: the interpolation data the target depends on, then the values that
    move the extremal along its family.  ``build`` takes the validated values
    in that order and returns the function tree; ``target`` takes the data
    values by name and returns a Disk or a positive bound.  ``probe`` names
    the jet component that lands on the target, ``branches`` the bound
    branches a sharp kind attains, and ``grid()`` yields the GridPoints the
    attainment suite checks.  A sharp kind's ``params`` takes its data (and
    optionally its free value) and returns ``(values, free)``: the named
    parameters its tree is built from, and the names among them that any
    choice of the free value moves.
    """

    kind: ExtremalKind
    data: tuple
    free: tuple
    build: Callable
    target: Callable
    probe: str
    grid: Callable
    branches: tuple = ()
    params: Callable | None = None


_Z0 = ("z0", unit_disk_point)
_DELTA0 = ("delta0", unit_disk_point)
_W0 = ("w0", require_finite)
_DELTA1 = ("delta1", unit_disk_point)
_UNIMODULAR_DELTA1 = ("delta1", unimodular_point)
_ALPHA = ("alpha", closed_disk_point)
_THETA = ("theta", require_real)

KINDS = {
    spec.kind: spec
    for spec in (
        KindSpec(
            ExtremalKind.SCHWARZ_PICK, (_Z0, _DELTA0), (_ALPHA,), _one_step,
            schwarz_pick_disk, "f1", _schwarz_pick_grid,
        ),
        KindSpec(
            ExtremalKind.DIEUDONNE, (_Z0, _W0), (_ALPHA,),
            lambda z0, w0, alpha: Product(Identity(), _one_step(z0, w0 / z0, alpha)),
            dieudonne_disk, "f1", _dieudonne_grid,
        ),
        KindSpec(
            ExtremalKind.SECOND_DEGENERATE, (_Z0, _DELTA0, _UNIMODULAR_DELTA1), (),
            _one_step, _second_disk, "f2", _second_degenerate_grid,
        ),
        KindSpec(
            ExtremalKind.SECOND_BOUNDARY, (_Z0, _DELTA0, _DELTA1), (_ALPHA,), _two_step,
            _second_disk, "f2", _second_boundary_grid,
        ),
        KindSpec(
            ExtremalKind.DIEUDONNE2_DEGENERATE, (_Z0, _W0, _UNIMODULAR_DELTA1), (),
            lambda z0, w0, delta1: Product(Identity(), _one_step(z0, w0 / z0, delta1)),
            lambda z0, w0, delta1: second_order_dieudonne_disk(z0, w0, delta1).region,
            "f2", partial(_dieudonne2_grid, _UNIMODULAR_GRID, ({},)),
        ),
        KindSpec(
            ExtremalKind.DIEUDONNE2_BOUNDARY, (_Z0, _W0, _DELTA1), (_ALPHA,),
            lambda z0, w0, delta1, alpha: Product(Identity(), _two_step(z0, w0 / z0, delta1, alpha)),
            lambda z0, w0, delta1: second_order_dieudonne_disk(z0, w0, delta1).region,
            "f2", partial(_dieudonne2_grid, _D1_GRID, _ALPHAS[::2]),
        ),
        KindSpec(
            ExtremalKind.SHARP_DEG1, (_Z0, _DELTA0), (), _sharp_deg1,
            lambda z0, delta0: branch_value(Branch.DEG1, abs(z0), abs(delta0)),
            "f2", _sharp_deg1_grid, (Branch.DEG1,), _deg1_params,
        ),
        KindSpec(
            ExtremalKind.SHARP_DEG2, (_Z0, _DELTA0), (_THETA,), _sharp_deg2,
            _deg2_bound, "f2", _sharp_deg2_grid, (Branch.DEG2, Branch.DEG2_ZERO), _deg2_params,
        ),
        KindSpec(
            ExtremalKind.SZASZ, (_Z0,), (_THETA,), _szasz,
            lambda z0: branch_value(Branch.SZASZ, abs(z0)),
            "f2", _szasz_grid, (Branch.SZASZ,), _szasz_params,
        ),
    )
}


def kind_spec(kind):
    """The table row of ``kind``, given as an ExtremalKind or its name."""
    try:
        return KINDS[ExtremalKind(kind)]
    except ValueError:
        raise DomainError(f"unknown extremal kind {kind!r}") from None


def kind_for_branch(branch):
    """The sharp kind whose extremal attains ``branch`` of the bound."""
    return next(spec.kind for spec in KINDS.values() if branch in spec.branches)


def make_extremal(kind, *, z0=None, delta0=None, delta1=None, alpha=None, w0=None, theta=None):
    """Build the extremal function of the given kind.

    The kind's row of ``KINDS`` lists the parameters it requires, with their
    validators: its data (z0 with delta0, or w0 with |w0| < |z0| when f(0) =
    0, and delta1 for second order), then its free values (alpha or theta;
    theta defaults to 0).  Giving a parameter the row does not list raises
    DomainError.
    """
    spec = kind_spec(kind)
    given = {"z0": z0, "delta0": delta0, "delta1": delta1, "alpha": alpha, "w0": w0, "theta": theta}
    params = spec.data + spec.free
    listed = {name for name, _ in params}
    for name, value in given.items():
        if value is not None and name not in listed:
            raise DomainError(f"{spec.kind.value} does not take parameter {name}")
    if theta is None:
        given["theta"] = 0.0
    values = []
    for name, validate in params:
        if given[name] is None:
            raise DomainError(f"{spec.kind.value} requires parameter {name}")
        values.append(validate(given[name], name))
        # f(0) = 0 bounds |f(z0)| by |z0| (always the first value): the one
        # domain that depends on another parameter
        if name == "w0" and abs(values[-1]) >= abs(values[0]):
            raise DomainError(f"{spec.kind.value} requires |w0| < |z0|")
    return spec.build(*values)


@dataclass(frozen=True)
class AttainmentReport:
    """Measured jet of an extremal function against its target.

    ``distance`` is the absolute distance to the disk boundary when the
    target is a Disk, and the relative gap | |g''| - bound | / bound when the
    target is a positive real bound.
    """

    kind: ExtremalKind
    value: complex
    first: complex
    second: complex
    target: str
    distance: float
    tol: float
    passed: bool


def attainment_distance(target, probe):
    """Distance of ``probe`` from the boundary of a Disk ``target``, or the
    relative gap of |probe| to a positive bound ``target``."""
    if isinstance(target, Disk):
        return target.boundary_distance(probe)
    return abs(abs(probe) - target) / target


def verify_attainment(kind, params, tol):
    """Build the extremal of ``kind`` with ``params`` (a dict of keyword
    arguments for :func:`make_extremal`) and check that it lands on the
    target of the kind's ``KINDS`` row (a Disk boundary or a positive bound)
    within ``tol``."""
    spec = kind_spec(kind)
    g = make_extremal(spec.kind, **params)
    target = spec.target(**{name: params[name] for name, _ in spec.data})
    tol = require_real(tol, "tol", finite=False)
    if not tol >= 0.0:
        raise DomainError("tol must be non-negative")
    j = eval_jet(g, complex(params["z0"]))
    if isinstance(target, Disk):
        text = f"boundary of disk(center={target.center!r}, radius={target.radius!r})"
    else:
        text = f"bound {target!r}"
    distance = attainment_distance(target, getattr(j, spec.probe))
    return AttainmentReport(
        kind=spec.kind,
        value=j.f0,
        first=j.f1,
        second=j.f2,
        target=text,
        distance=distance,
        tol=tol,
        passed=distance <= tol,
    )


def branch_bound_for(kind, z0, delta0=None):
    """Closed-form target value the sharp kinds are expected to attain."""
    spec = kind_spec(kind)
    if not spec.branches:
        raise DomainError(f"{spec.kind.value} does not target a scalar bound")
    given = {"z0": z0, "delta0": 0j if delta0 is None else delta0}
    return spec.target(**{name: given[name] for name, _ in spec.data})
