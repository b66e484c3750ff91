"""Analytic self-maps of the unit disk as immutable composition trees.

Grammar::

    expr := Identity | Constant(c) | Rotation(theta, expr) | MobiusT(a, expr)
          | Product(expr, expr) | Compose(expr, expr) | Bracket(w, expr)

Constants live in the closed disk, Moebius and bracket parameters in the open
disk, so every well-formed tree maps the disk into the closed disk by
construction.  Trees evaluate as jets of order 0, 1 or 2 (``jet(z0,
order)``, second order by default), and a node's map is written once, as its
jet: ``value(z)`` is the jet of order 0.  The jets are generic over the scalar
type, so a high-precision evaluation (e.g. with mpmath) can serve as an
independent oracle.  A jet is computed only to the order asked for, and
the valuation rule lowers it further: a ``Product`` whose left factor is 0 at
z0 in every lane asks its right factor for one order less, since that
factor's top derivative is multiplied by the 0.  In a Schur step T_c(u rest),
u = T_{-z0}(z) is such a factor, so g''(z0) of ``schur_parametrize``'s two
steps reads its g* by value alone, g''(z0) = c2 + rho2 g*(z0), and so does
f'(z0) of ``dieudonne_parametrize``'s one step.  A node's
parameters may also be batches (numpy arrays, one lane per sample, see
``diskvar.moebius``): the tree then stands for one function per lane and
evaluates all of them at once, at a batch of points.

A node's JSON tag and fields are declared once, by its class: ``TAG`` and the
class annotations, whose declared types say how each field is written and read.
"""

import math
from functools import reduce

from .moebius import (
    DomainError,
    Jet2,
    _SCALAR_OPS,
    _any_lane,
    _Frozen,
    _modulus2,
    _ops,
    _refuse_batch,
    _require_w0_below_z0,
    _same_lanes,
    _set_field,
    closed_disk_point,
    jet_compose,
    jet_div,
    jet_mul,
    jet_scale,
    require_finite,
    require_int,
    require_real,
    unit_disk_point,
)

__all__ = [
    "FunctionExpr",
    "Identity",
    "Constant",
    "Rotation",
    "MobiusT",
    "Product",
    "Compose",
    "Bracket",
    "eval_jet",
    "PrescribedData",
    "schur_parametrize",
    "dieudonne_parametrize",
    "random_schur_function",
    "random_blaschke_product",
    "complex_to_pair",
    "function_to_json",
    "function_from_json",
]


# evaluating or serialising a tree recurses once per level, so deeper trees
# are refused, when built or read, well inside Python's default recursion
# limit (1000)
_MAX_TREE_DEPTH = 500


class FunctionExpr:
    """Base class for expression nodes.  Nodes are frozen and hashable."""

    __slots__ = ()
    TAG = None
    # levels from this node down to its deepest leaf; ``_nest`` sets it on
    # every node with children
    _depth = 1

    def value(self, z):
        """The tree's value at z: its jet of order 0, so a value and a jet
        run the same arithmetic, and a pole raises ``PoleError`` in both."""
        return self.jet(z, 0).f0

    def jet(self, z0, order=2):
        """The jet at z0 to ``order`` (0, 1 or 2): a ``Jet2`` whose
        derivatives beyond ``order`` are None."""
        raise NotImplementedError

    def to_obj(self):
        """JSON-ready dict: the node's TAG, then its fields in declaration
        order, complex scalars as [re, im] pairs; a field of lanes is refused."""
        obj = {"node": self.TAG}
        for name, kind in type(self).__annotations__.items():
            value = getattr(self, name)
            if kind is FunctionExpr:
                value = value.to_obj()
            elif _ops(value) is not _SCALAR_OPS:
                raise DomainError(f"node {self.TAG!r} holds lanes in {name!r}: a tree of lanes has no JSON form")
            elif kind is complex:
                value = complex_to_pair(value)
            obj[name] = value
        return obj


def _nest(node, child, other=None):
    """Give ``node`` one level more than its deepest child, refusing trees
    deeper than ``_MAX_TREE_DEPTH`` levels."""
    depth = child._depth if other is None or child._depth >= other._depth else other._depth
    if depth >= _MAX_TREE_DEPTH:
        raise DomainError(f"function tree is deeper than {_MAX_TREE_DEPTH} levels")
    _set_field(node, "_depth", depth + 1)


def _leaf_jet(order, f0, f1):
    """A leaf's jet (f0, f1, 0) to ``order``.  The leaves check the order,
    which every node passes down to its children before it uses it."""
    if type(order) is not int or not 0 <= order <= 2:
        raise DomainError(f"jet order must be the integer 0, 1 or 2, got {order!r}")
    return Jet2(f0, f1 if order else None, 0j if order == 2 else None)


class Identity(_Frozen, FunctionExpr):
    TAG = "identity"

    def jet(self, z0, order=2):
        return _leaf_jet(order, z0, 1.0 + 0j)


class Constant(_Frozen, FunctionExpr):
    TAG = "constant"
    c: complex

    def __init__(self, c):
        _set_field(self, "c", closed_disk_point(c, "c"))

    def jet(self, z0, order=2):
        return _leaf_jet(order, self.c, 0j)


class Rotation(_Frozen, FunctionExpr):
    """e^{i theta} * child(z)."""

    TAG = "rotation"
    theta: float
    child: FunctionExpr

    def __init__(self, theta, child):
        _set_field(self, "theta", require_real(theta, "theta"))
        _set_field(self, "child", child)
        _nest(self, child)

    def jet(self, z0, order=2):
        return jet_scale(_unimodular(self.theta), self.child.jet(z0, order))


def _mobius_jet(a, x):
    """Jet of T_a(w) = (w + a) / (1 + conj(a) w) at the jet x of w: the one
    place T_a is computed, for ``MobiusT``, ``Bracket`` and
    ``disks.mercer_disk``.  A pole raises ``PoleError`` from ``jet_div``."""
    ac = a.conjugate()
    f1, f2 = x.f1, x.f2
    num = Jet2(x.f0 + a, f1, f2)
    den = Jet2(1.0 + ac * x.f0, None if f1 is None else ac * f1, None if f2 is None else ac * f2)
    return jet_div(num, den)


def _unimodular(theta):
    """e^{i theta}, lane-wise for a batch of angles."""
    return _ops(theta).exp(1j * theta)


class MobiusT(_Frozen, FunctionExpr):
    """T_a(child(z)) with T_a(w) = (w + a) / (1 + conj(a) w)."""

    TAG = "mobius"
    a: complex
    child: FunctionExpr

    def __init__(self, a, child):
        _set_field(self, "a", unit_disk_point(a, "a"))
        _set_field(self, "child", child)
        _nest(self, child)

    def jet(self, z0, order=2):
        return _mobius_jet(self.a, self.child.jet(z0, order))


class Product(_Frozen, FunctionExpr):
    TAG = "product"
    left: FunctionExpr
    right: FunctionExpr

    def __init__(self, left, right):
        _set_field(self, "left", left)
        _set_field(self, "right", right)
        _nest(self, left, right)

    def jet(self, z0, order=2):
        left = self.left.jet(z0, order)
        # the valuation rule: where the left factor is 0 at z0 in every lane,
        # as a Schur step's u is, the right one's top derivative is multiplied
        # by that 0, so it is not asked for
        if order and not _any_lane(left.f0 != 0):
            order -= 1
        return jet_mul(left, self.right.jet(z0, order))


class Compose(_Frozen, FunctionExpr):
    TAG = "compose"
    outer: FunctionExpr
    inner: FunctionExpr

    def __init__(self, outer, inner):
        _set_field(self, "outer", outer)
        _set_field(self, "inner", inner)
        _nest(self, outer, inner)

    def jet(self, z0, order=2):
        ji = self.inner.jet(z0, order)
        jo = self.outer.jet(ji.f0, order)
        return jet_compose(jo, ji)


class Bracket(_Frozen, FunctionExpr):
    """[child(z), w] = (child(z) - w) / (1 - conj(w) child(z)), which is
    T_{-w}(child(z))."""

    TAG = "bracket"
    w: complex
    child: FunctionExpr

    def __init__(self, w, child):
        _set_field(self, "w", unit_disk_point(w, "w"))
        _set_field(self, "child", child)
        _nest(self, child)

    def jet(self, z0, order=2):
        return _mobius_jet(-self.w, self.child.jet(z0, order))


def eval_jet(f, z0):
    """Second-order jet of a tree at a point of the open disk."""
    z0 = unit_disk_point(z0, "z0")
    return f.jet(z0)


class PrescribedData(_Frozen):
    """Interpolation data: value delta0 and hyperbolic derivative delta1 at z0.

    delta1 is the invariant first derivative (1-|z0|^2) g'(z0) / (1-|g(z0)|^2),
    so |delta1| <= 1 by Schwarz-Pick.
    """

    z0: complex
    delta0: complex
    delta1: complex

    def __init__(self, z0, delta0, delta1):
        _set_field(self, "z0", unit_disk_point(z0, "z0"))
        _set_field(self, "delta0", unit_disk_point(delta0, "delta0"))
        _set_field(self, "delta1", closed_disk_point(delta1, "delta1"))
        _same_lanes(self.z0, self.delta0, self.delta1)


def _schur_steps(z0, cs, rest):
    """T_{c_0}(u T_{c_1}(u ... T_{c_last}(u rest))): one Schur step at z0 per
    parameter c, all sharing one node u = T_{-z0}(z), so -z0 is validated once."""
    u = MobiusT(-z0, Identity())
    for c in reversed(cs):
        rest = MobiusT(c, Product(u, rest))
    return rest


def schur_parametrize(data, gstar):
    """All self-maps with value delta0 and hyperbolic derivative delta1 at z0.

    Returns T_{delta0}( T_{-z0}(z) * T_{delta1}( T_{-z0}(z) * g*(z) ) ), two
    Schur steps at z0, for a free Schur-class parameter g* (a constant one for
    the extremals).  Requires |delta1| < 1: on the boundary the class is one
    function, one step at the constant delta1.
    """
    if _any_lane(_modulus2(data.delta1) >= 1.0):
        raise DomainError(
            "schur_parametrize needs |delta1| < 1; the |delta1| = 1 case is a "
            "single extremal function"
        )
    return _schur_steps(data.z0, (data.delta0, data.delta1), gstar)


def dieudonne_parametrize(z0, w0, fstar):
    """All self-maps with f(0) = 0 and f(z0) = w0: z T_{u0}(T_{-z0}(z) f*), z
    times one Schur step at z0 with u0 = w0/z0, for a free Schur-class f* (a
    constant, or a step at one, for the extremals).  Requires |w0| < |z0|."""
    return _dieudonne_steps(unit_disk_point(z0, "z0"), require_finite(w0, "w0"), fstar, "dieudonne_parametrize")


def _dieudonne_steps(z0, w0, fstar, name):
    """``dieudonne_parametrize``'s tree from a z0 and a w0 validated already;
    a w0 with |w0| >= |z0| is refused in the words of ``name``."""
    _require_w0_below_z0(z0, w0, name)
    return Product(Identity(), _schur_steps(z0, (w0 / z0,), fstar))


# the random trees' maximum Blaschke degree and the cap on the moduli of
# their zeros
_MAX_BLASCHKE_DEGREE = 4
_ZERO_MODULUS_CAP = 0.95
# the uniforms of one random tree: two for k, two per zero, theta, scaled,
# s, wrapped and two for c
_SCHUR_WIDTH = 2 + 2 * _MAX_BLASCHKE_DEGREE + 4 + 2


def substream(seed, *key):
    """Independent RNG substream keyed by (seed, *key)."""
    # numpy loads on the first draw, so the closed forms and the CLI run without it
    import numpy as np

    return np.random.default_rng([int(seed)] + [int(k) for k in key])


def disk_sample(rng, cap, size=None):
    """Area-uniform point with |z| <= cap, or a batch of ``size`` such points."""
    return _disk_point(cap, rng.random(size), rng.random(size))


def _disk_point(cap, radius_u, angle_u):
    """cap * sqrt(radius_u) * e^{2 pi i angle_u}: the point ``disk_sample``
    makes of its two uniforms, element by element where they are arrays."""
    return cap * _ops(radius_u).sqrt(radius_u) * _ops(angle_u).exp(2j * math.pi * angle_u)


def _draw_schur(rng, n, lanes, width=0, least_degree=0):
    """The parameters of random Schur trees for ``lanes`` of n, one lane per
    tree, with ``width`` uniforms per lane for the caller's own data.

    A tree has a Blaschke degree from least_degree..4 (degree 0 gives the
    constant k), the zeros and the angle theta, whether it is scaled by s
    into the interior, and whether it is wrapped in T_c.  All n degrees come
    first, since the bounded-integer sampler takes a data-dependent number of
    words.  Then one lane-major draw runs up to the last lane: each row holds
    one lane's ``width`` data uniforms, then its ``_SCHUR_WIDTH`` uniforms in
    the order of the parameters above.  The first rows of a C-order draw do
    not depend on its length, so a lane's values do not depend on ``lanes``.
    Returns the data uniforms, one row per uniform and a lane per column, and
    the parameters."""
    start, stop, _ = lanes.indices(n)
    degree = rng.integers(least_degree, _MAX_BLASCHKE_DEGREE + 1, n)[start:stop]
    u = rng.random((stop, width + _SCHUR_WIDTH))[start:].T
    data, u = u[:width], u[width:]
    m = _MAX_BLASCHKE_DEGREE
    theta, scaled, s, wrapped = u[2 + 2 * m : 6 + 2 * m]
    return data, {
        "degree": degree,
        "k": _disk_point(_ZERO_MODULUS_CAP, u[0], u[1]),
        # one row per zero: the radius uniforms, then the angle uniforms
        "zeros": _disk_point(_ZERO_MODULUS_CAP, u[2 : 2 + m], u[2 + m : 2 + 2 * m]),
        "theta": 2.0 * math.pi * theta,
        "scaled": scaled < 0.5,
        "s": s,
        "wrapped": wrapped < 0.5,
        "c": _disk_point(_ZERO_MODULUS_CAP, u[-2], u[-1]),
    }


def _schur_tree(p, lane=0):
    """The random Schur tree of one lane of ``_draw_schur``'s parameters, with
    scalar parameters: the constant k at degree 0, else e^{i theta} times the
    lane's first ``degree`` bracket factors [z, w_j]; times s where the lane
    is scaled, and inside T_c where it is wrapped."""
    degree = int(p["degree"][lane])
    if degree == 0:
        base = Constant(complex(p["k"][lane]))
    else:
        zeros = [Bracket(complex(w), Identity()) for w in p["zeros"][:degree, lane]]
        base = Rotation(float(p["theta"][lane]), reduce(Product, zeros))
    if p["scaled"][lane]:
        # interior scaling keeps the sample away from the extremal class
        base = Product(Constant(complex(p["s"][lane])), base)
    if p["wrapped"][lane]:
        base = MobiusT(complex(p["c"][lane]), base)
    return base


def random_schur_function(seed, index=0):
    """Random Schur-class tree: a finite Blaschke product of degree up to 4
    (degree 0 gives a constant), optionally scaled into the interior and
    transported by a random T_c; the distribution the membership suite draws
    its parameter g* from.  Reproducible per (seed, index); each index gets
    an independent substream."""
    rng = substream(require_int(seed, "seed"), 0, require_int(index, "index"))
    return _schur_tree(_draw_schur(rng, 1, slice(None))[1])


def random_blaschke_product(seed, index=0, degree=None):
    """Random finite Blaschke product of the given degree, 1 to 4, drawn
    uniformly from {1, ..., 4} when degree is None."""
    rng = substream(require_int(seed, "seed"), 1, require_int(index, "index"))
    _, p = _draw_schur(rng, 1, slice(None), least_degree=1)
    if degree is not None:
        degree = require_int(degree, "degree", minimum=1)
        if degree > _MAX_BLASCHKE_DEGREE:
            raise DomainError(f"degree must be <= {_MAX_BLASCHKE_DEGREE}, got {degree}")
        p["degree"] = [degree]
    p.update(scaled=[False], wrapped=[False])
    return _schur_tree(p)


def complex_to_pair(z):
    """[re, im], the JSON form of a finite complex scalar."""
    _refuse_batch(z, "z", "complex_to_pair")
    z = require_finite(z, "z")
    return [z.real, z.imag]


def _pair_to_complex(p):
    if not isinstance(p, (list, tuple)) or len(p) != 2:
        raise DomainError(f"expected [re, im] pair, got {p!r}")
    return complex(require_real(p[0], "real part"), require_real(p[1], "imaginary part"))


_NODES = {cls.TAG: cls for cls in (Identity, Constant, Rotation, MobiusT, Product, Compose, Bracket)}


def _expr_from_obj(obj, depth=1):
    """Inverse of ``FunctionExpr.to_obj``, for a node ``depth`` levels down.
    Unknown or missing fields, non-numeric components and trees deeper than
    ``_MAX_TREE_DEPTH`` levels raise DomainError."""
    if depth > _MAX_TREE_DEPTH:
        raise DomainError(f"function tree is deeper than {_MAX_TREE_DEPTH} levels")
    if not isinstance(obj, dict) or "node" not in obj:
        raise DomainError(f"not a function node: {obj!r}")
    node = obj["node"]
    if not isinstance(node, str) or node not in _NODES:
        raise DomainError(f"unknown node tag {node!r}")
    cls = _NODES[node]
    declared = cls.__annotations__
    unknown = set(obj) - {"node"} - set(declared)
    if unknown:
        raise DomainError(f"node {node!r} has unknown fields {sorted(map(str, unknown))}")
    args = []
    for name, kind in declared.items():
        if name not in obj:
            raise DomainError(f"node {node!r} is missing field {name!r}")
        value = obj[name]
        if kind is FunctionExpr:
            value = _expr_from_obj(value, depth + 1)
        elif kind is complex:
            value = _pair_to_complex(value)
        args.append(value)  # a real field is checked by its node's constructor
    return cls(*args)


# these two import json themselves, so that importing diskvar does not load it


def function_to_json(f):
    if not isinstance(f, FunctionExpr):
        raise DomainError(f"function_to_json needs a function tree, got {f!r}")
    import json

    return json.dumps(f.to_obj())


def function_from_json(text):
    import json

    if not isinstance(text, (str, bytes, bytearray)):
        raise DomainError(f"a function document is JSON text, got {text!r}")
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a ValueError is also bytes that are not UTF-8 or an integer of more
        # digits than int() takes; the decoder recurses per nesting level too
        raise DomainError(f"not a function document: {exc}") from None
    return _expr_from_obj(obj)
