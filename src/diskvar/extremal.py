"""Constructors for the functions that attain each variability-disk boundary
and each sharp bound, plus a small attainment checker.

Every constructor returns a ``FunctionExpr`` tree, so extremal functions can
be evaluated, differentiated via jets, serialized, and fed back through the
same machinery the harness uses for random samples.

Each disk kind's extremal is its class's parametrization at a constant g*:
Schur steps at z0, as ``schur_parametrize`` takes them, or
``dieudonne_parametrize``'s tree, whose refusal of |w0| >= |z0| names the
kind.  The sharp kinds build their trees themselves.

``KINDS`` is the one table of what an extremal kind is: its parameters with
their validators, its constructor, the target it attains, the jet component
that lands on the target, the bound branches it attains, the grid the
attainment suite sweeps and, for the sharp kinds, the one function that
derives the extremal's parameters.
"""

import math
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
    _dieudonne_steps,
    _schur_steps,
    _unimodular,
    eval_jet,
)
from .moebius import (
    _SCALAR_OPS,
    Disk,
    DomainError,
    _any_lane,
    _lane,
    _modulus2,
    _ops,
    _refuse_batch,
    _same_lanes,
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


def _real_quotient(z, x):
    """z / x for a real x, each part rounded once, as CPython divides.  numpy
    multiplies a complex lane by 1/x, which rounds twice; the deg1 extremal
    amplifies a last-bit error in its zero a by 1/(1 - |a|^2), ~1e10 at
    r = R = 0.99999.  A scalar keeps CPython's division: dividing its parts
    apart can give a zero part the other sign."""
    if _ops(z) is _SCALAR_OPS:
        return z / x
    return z.real / x + 1j * (z.imag / x)


def _deg1_params(z0, delta0):
    """Rotation theta and zero a of the deg1 extremal e^{i theta} [a, z], lane-wise."""
    r, R = abs(z0), abs(delta0)
    if _any_lane(r == 0.0):
        raise DomainError("sharp-deg1 requires z0 != 0")
    turn = -z0.conjugate() * delta0
    theta = _ops(delta0).where(delta0 != 0, _ops(turn).angle(turn), 0.0)
    return {"theta": theta, "a": _real_quotient((r + R) * z0, r * (1.0 + r * R))}


def _sharp_deg1(z0, delta0):
    params = _deg1_params(z0, delta0)
    # |a| = (r + R) / (1 + r R) < 1, but it rounds to 1 when r or R is within
    # an ulp or so of 1
    a = params["a"]
    outside = _modulus2(a) >= 1.0
    if _any_lane(outside):
        raise DomainError(f"sharp-deg1 zero a must lie in the open unit disk, |a| = {abs(_lane(a, outside))}")
    return Rotation(params["theta"], Bracket(a, Identity()))


def _deg2_params(z0, delta0, theta=0.0):
    """Rotation theta, delta1 and alpha of the deg2 extremal
    T_{delta0}(u T_{delta1}(alpha u)).

    Where z0 and delta0 are both nonzero the values are fixed, and theta is
    the phase of alpha.  At z0 = 0 the extremal is T_{delta0}(alpha z^2) with
    alpha = e^{i theta}; at delta0 = 0 it takes delta1 = e^{i theta} z0 / 2
    with the phase-matched alpha = e^{i theta}.  Each lane of a batch takes
    its own case.
    """
    r, R = abs(z0), abs(delta0)
    if _any_lane(r + 2.0 * R >= 2.0):
        raise DomainError("sharp-deg2 requires |z0| + 2|delta0| < 2")
    free = (r == 0.0) | (R == 0.0)
    ops = _ops(free)
    # phase-wise: the product forms underflow for tiny r, R
    rel = _ops(delta0).angle(delta0) - _ops(z0).angle(z0)
    rotation = _unimodular(theta)
    alpha = ops.where(free, rotation, -_unimodular(rel - _ops(z0).angle(z0)))
    free_delta1 = _ops(R).where(R > 0.0, 0j, rotation * z0 / 2.0)
    delta1 = ops.where(free, free_delta1, -(r / (2.0 * (1.0 - R))) * _unimodular(rel))
    return {"theta": ops.where(free, theta, _ops(alpha).angle(alpha)), "delta1": delta1, "alpha": alpha}


def _sharp_deg2(z0, delta0, theta):
    """Compose(G, u) with G(u) = T_{delta0}(u T_{delta1}(alpha u)), the
    degree-2 rational attaining the deg2 branch bound."""
    params = _deg2_params(z0, delta0, theta)
    ident = Identity()
    inner = MobiusT(params["delta1"], Product(Constant(params["alpha"]), ident))
    return Compose(MobiusT(delta0, Product(ident, inner)), MobiusT(-z0, ident))


def _szasz(z0, theta):
    """The deg2 extremal at |delta0| = r^2/8, rotated by theta; e^{i theta} z^2
    when z0 = 0 (in every lane of a batch: the deg2 tree is the same function
    at z0 = 0, so a batch that mixes z0 = 0 with other lanes takes that tree)."""
    r = abs(z0)
    if not _any_lane(r != 0.0):
        return Rotation(theta, Product(Identity(), Identity()))
    R = r * r / 8.0
    turn = -z0.conjugate() ** 2
    delta0 = R * _unimodular(theta - _ops(turn).angle(turn))
    return _sharp_deg2(z0, delta0, theta)


def _second_disk(z0, delta0, delta1):
    return second_derivative_disk(PrescribedData(z0, delta0, delta1))


class GridPoint(NamedTuple):
    """Data points of an attainment grid as lanes, with their targets
    computed once.

    ``data`` maps each name to a numpy array with one data point per lane;
    ``target`` is a Disk with one center and radius per lane (or one for all
    lanes), or one bound per lane.  ``rows`` holds ``(free, pins)`` pairs,
    each applying to every lane.  The extremal built from ``data`` and the
    ``free`` values (one for every lane, or one per lane) must put its probe
    on ``target``: on the boundary of a Disk, or at the modulus of a positive
    bound.  Each pin is a ``(component, disk)`` pair: that component of the
    same jet must land on the disk's boundary as well.
    """

    data: dict
    target: object
    rows: tuple


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


def _lanes(points):
    """The points (tuples of data values) as one numpy array per value,
    holding one point per lane."""
    import numpy as np  # only the attainment grids need numpy: the CLI never loads it

    return np.array(list(points), dtype=complex).T


def _schwarz_pick_grid():
    z0, d0 = _lanes(product(_Z0_GRID, _D0_GRID))
    yield GridPoint({"z0": z0, "delta0": d0}, schwarz_pick_disk(z0, d0), _ALPHA_ROWS)


def _dieudonne_grid():
    z0, u0 = _lanes(product(_Z0_GRID[1:], _U0_GRID))
    w0 = u0 * z0
    yield GridPoint({"z0": z0, "w0": w0}, dieudonne_disk(z0, w0), _ALPHA_ROWS)


def _second_degenerate_grid():
    z0, d0, d1 = _lanes(product(_Z0_GRID, _D0_GRID, _UNIMODULAR_GRID))
    data = {"z0": z0, "delta0": d0, "delta1": d1}
    yield GridPoint(data, _second_disk(z0, d0, d1), (({}, ()),))


def _second_boundary_grid():
    z0, d0, d1 = _lanes(product(_Z0_GRID, _D0_GRID, _D1_GRID))
    data = {"z0": z0, "delta0": d0, "delta1": d1}
    prescribed = PrescribedData(z0, d0, d1)
    disk = second_derivative_disk(prescribed)
    yield GridPoint(data, disk, _ALPHA_ROWS)
    # the aligned alpha puts g''(z0) on the circle |w| = max |g''(z0)|; it is
    # NaN in the lanes where the center vanishes and every alpha is aligned
    best = max_attaining_alpha(prescribed)
    has = ~_ops(best).isnan(best)
    aligned = {name: v[has] for name, v in data.items()}
    top = abs(disk.center) + disk.radius
    yield GridPoint(aligned, Disk(0j, top[has]), (({"alpha": best[has]}, ()),))
    # g''(z0) = c2 + rho2 alpha: an interior alpha lands on the circle of radius |alpha| rho2
    interior = Disk(disk.center, abs(_INTERIOR_ALPHA) * disk.radius)
    yield GridPoint(data, interior, (({"alpha": _INTERIOR_ALPHA}, ()),))


def _dieudonne2_grid(d1_grid, frees):
    z0, u0, d1 = _lanes(product(_Z0_GRID[1:], _U0_GRID, d1_grid))
    w0 = u0 * z0
    w1, disk = second_order_dieudonne_disk(z0, w0, d1)
    # f'(z0) = w1 whatever the free values: checked once, on the last extremal
    pinned = (("f1", Disk(w1, 0.0)),)
    rows = tuple((free, ()) for free in frees[:-1]) + ((frees[-1], pinned),)
    yield GridPoint({"z0": z0, "w0": w0, "delta1": d1}, disk, rows)


def _sharp_points(pairs):
    """(z0, delta0) with moduli (r, R), real and rotated, for each pair."""
    for r, R in pairs:
        yield complex(r), complex(R)
        yield r * _Z0_TURN, R * _D0_TURN


def _sharp_grid(kind, groups):
    """The grid of a sharp kind.  ``groups`` lists ``(points, rows)`` pairs:
    data points (tuples of the kind's data values, in order), and the
    function that gives a group's rows from its data lanes.  Each group is
    one GridPoint, its targets sliced from one lane-wise bound over every
    data point."""
    names = [name for name, _ in kind_spec(kind).data]
    groups = [(list(points), rows) for points, rows in groups]
    data = _lanes(values for points, _ in groups for values in points)
    bounds = branch_bound_for(kind, **dict(zip(names, data)))
    start = 0
    for points, rows in groups:
        at = slice(start, start + len(points))
        values = [v[at] for v in data]
        yield GridPoint(dict(zip(names, values)), bounds[at], rows(*values))
        start = at.stop


def _sharp_deg1_grid():
    def rows(z0, d0):
        return (({}, (("f0", Disk(d0, 0.0)),)),)

    return _sharp_grid(ExtremalKind.SHARP_DEG1, [(_sharp_points(product(_RR_GRID, _RR_GRID)), rows)])


def _sharp_deg2_grid():
    def rows(z0, d0):
        # theta = 0 is the default; it is named because the z0 = 0 rows name
        # theta, and a kind's lane points must have the same free values
        return (({"theta": 0.0}, (("f0", Disk(0j, abs(d0))),)),)

    def free_rows(z0, d0):
        # z0 = 0: the rotation theta is free
        return ({"theta": 0.0}, ()), ({"theta": 1.3}, ())

    pairs = ((r, R) for r, R in product(_RR_GRID, (0.0,) + _RR_GRID) if r + 2.0 * R < 2.0)
    at_zero = ((0j, complex(R)) for R in (0.35, 0.6))
    return _sharp_grid(ExtremalKind.SHARP_DEG2, [(_sharp_points(pairs), rows), (at_zero, free_rows)])


def _szasz_grid():
    def rows(z0):
        r = abs(z0)
        pinned = (("f0", Disk(0j, r * r / 8.0)),)
        return ({"theta": 0.0}, pinned), ({"theta": 1.1}, pinned)

    # r = 0 too: it is checked in the deg2 tree, which there is e^{i theta} z^2
    turn = complex(math.cos(0.4), math.sin(0.4))
    points = [(r * turn,) for r in (0.0, 0.25, 0.5, 0.75, 0.9)]
    return _sharp_grid(ExtremalKind.SZASZ, [(points, rows)])


class KindSpec(NamedTuple):
    """Everything diskvar knows about one extremal kind.

    ``data`` and ``free`` list ``(name, validator)`` pairs in validation
    order: the interpolation data the target depends on, then the values that
    move the extremal along its family.  ``build`` takes the validated values
    in that order and returns the function tree, for a disk kind its class's
    parametrization at a constant g*; ``target`` takes the data values by name
    and returns a Disk or a positive bound.  ``probe`` names the jet component
    that lands on the target, ``branches`` the bound branches a sharp kind
    attains, and ``grid()`` yields the few GridPoints the attainment suite
    checks, their targets from one lane-wise call of the closed form or bound.
    ``build``, ``target`` and a sharp kind's ``params`` take lanes as well as
    scalars.  ``params`` takes the data and theta (0 if not given) and
    returns, by name, the values the tree is built from; those that theta
    moves take any value along the family, together ("arbitrary" in the CLI).
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
# the free values a caller may leave out
_DEFAULTS = {"theta": 0.0}

KINDS = {
    spec.kind: spec
    for spec in (
        KindSpec(
            ExtremalKind.SCHWARZ_PICK, (_Z0, _DELTA0), (_ALPHA,),
            lambda z0, delta0, alpha: _schur_steps(z0, (delta0,), Constant(alpha)),
            schwarz_pick_disk, "f1", _schwarz_pick_grid,
        ),
        KindSpec(
            ExtremalKind.DIEUDONNE, (_Z0, _W0), (_ALPHA,),
            lambda z0, w0, alpha: _dieudonne_steps(z0, w0, Constant(alpha), "dieudonne"),
            dieudonne_disk, "f1", _dieudonne_grid,
        ),
        KindSpec(
            ExtremalKind.SECOND_DEGENERATE, (_Z0, _DELTA0, _UNIMODULAR_DELTA1), (),
            lambda z0, delta0, delta1: _schur_steps(z0, (delta0,), Constant(delta1)),
            _second_disk, "f2", _second_degenerate_grid,
        ),
        KindSpec(
            ExtremalKind.SECOND_BOUNDARY, (_Z0, _DELTA0, _DELTA1), (_ALPHA,),
            lambda z0, delta0, delta1, alpha: _schur_steps(z0, (delta0, delta1), Constant(alpha)),
            _second_disk, "f2", _second_boundary_grid,
        ),
        KindSpec(
            ExtremalKind.DIEUDONNE2_DEGENERATE, (_Z0, _W0, _UNIMODULAR_DELTA1), (),
            lambda z0, w0, delta1: _dieudonne_steps(z0, w0, Constant(delta1), "dieudonne2-degenerate"),
            lambda z0, w0, delta1: second_order_dieudonne_disk(z0, w0, delta1).region,
            "f2", partial(_dieudonne2_grid, _UNIMODULAR_GRID, ({},)),
        ),
        KindSpec(
            ExtremalKind.DIEUDONNE2_BOUNDARY, (_Z0, _W0, _DELTA1), (_ALPHA,),
            lambda z0, w0, delta1, alpha: _dieudonne_steps(
                z0, w0, _schur_steps(z0, (delta1,), Constant(alpha)), "dieudonne2-boundary"
            ),
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
            # at delta0 = 0 the deg2 value is the deg2-zero value, bit for bit
            lambda z0, delta0: branch_value(Branch.DEG2, abs(z0), abs(delta0)),
            "f2", _sharp_deg2_grid, (Branch.DEG2, Branch.DEG2_ZERO), _deg2_params,
        ),
        KindSpec(
            ExtremalKind.SZASZ, (_Z0,), (_THETA,), _szasz,
            lambda z0: branch_value(Branch.SZASZ, abs(z0)),
            "f2", _szasz_grid, (Branch.SZASZ,), lambda z0, theta=0.0: {"theta": theta},
        ),
    )
}


# every parameter of the kinds, in the order the rows first list them, with
# the validator of the last row that lists it
_PARAMETERS = {name: validate for spec in KINDS.values() for name, validate in spec.data + spec.free}


def kind_spec(kind):
    """The table row of ``kind``, given as an ExtremalKind or its name."""
    try:
        return KINDS[ExtremalKind(kind)]
    except ValueError:
        raise DomainError(f"unknown extremal kind {kind!r}") from None


def kind_for_branch(branch):
    """The sharp kind whose extremal attains ``branch`` of the bound."""
    return next(spec.kind for spec in KINDS.values() if branch in spec.branches)


def _row_arguments(spec, row, params):
    """``(name, validator, value)`` for each parameter of ``row``, a
    ``KINDS`` row's data or data and free values, in its order, taken from
    the keyword arguments ``params`` as :func:`make_extremal` takes them."""
    listed = {name for name, _ in row}
    for name, value in params.items():
        if value is not None and name not in listed:
            raise DomainError(f"{spec.kind.value} does not take parameter {name}")
    given = _DEFAULTS | {name: value for name, value in params.items() if value is not None}
    for name, validate in row:
        if name not in given:
            raise DomainError(f"{spec.kind.value} requires parameter {name}")
        yield name, validate, given[name]


def make_extremal(kind, **params):
    """Build the extremal function of the given kind.

    The kind's row of ``KINDS`` lists the parameters it takes, by name, with
    their validators: its data (z0 with delta0, or w0 with |w0| < |z0| when
    f(0) = 0, and delta1 for second order), then its free values (alpha, or
    theta, which defaults to 0).  Each is validated in that order.  A None
    value counts as not given; a missing parameter, or one the row does not
    list, raises DomainError.
    """
    spec = kind_spec(kind)
    values = [validate(value, name) for name, validate, value in _row_arguments(spec, spec.data + spec.free, params)]
    _same_lanes(*values)
    return spec.build(*values)


class AttainmentReport(NamedTuple):
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
    relative gap of |probe| to a positive bound ``target``.  A probe may hold
    rows of lanes, each row against the target's lanes."""
    if isinstance(target, Disk):
        return target.boundary_distance(probe)
    return Disk(0j, target).boundary_distance(probe) / target


def verify_attainment(kind, params, tol):
    """Build the extremal of ``kind`` with ``params`` (a dict of keyword
    arguments for :func:`make_extremal`) and check that it lands on the
    target of the kind's ``KINDS`` row (a Disk boundary or a positive bound)
    within ``tol``."""
    spec = kind_spec(kind)
    for name, value in {**params, "tol": tol}.items():
        _refuse_batch(value, name, "verify_attainment", "harness.run_attainment_suite")
    g = make_extremal(spec.kind, **params)
    target = spec.target(**{name: params[name] for name, _ in spec.data})
    tol = require_real(tol, "tol", finite=False)
    if not tol >= 0.0:
        raise DomainError("tol must be non-negative")
    if tol == math.inf:
        raise DomainError("tol must be finite, got inf")
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


def branch_bound_for(kind, **data):
    """Closed-form target value the sharp kinds are expected to attain, at
    the data of the kind's ``KINDS`` row, given by name as to
    :func:`make_extremal`."""
    spec = kind_spec(kind)
    if not spec.branches:
        raise DomainError(f"{spec.kind.value} does not target a scalar bound")
    return spec.target(**{name: value for name, _, value in _row_arguments(spec, spec.data, data)})
