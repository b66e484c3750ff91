"""Analytic self-maps of the unit disk as immutable composition trees.

Grammar::

    expr := Identity | Constant(c) | Rotation(theta, expr) | MobiusT(a, expr)
          | Product(expr, expr) | Compose(expr, expr) | Bracket(w, expr)

Constants live in the closed disk, Moebius and bracket parameters in the open
disk, so every well-formed tree maps the disk into the closed disk by
construction.  Trees evaluate pointwise (``value``) and as second-order jets
(``jet``); ``value`` is generic over the scalar type so a high-precision
evaluation (e.g. with mpmath) can serve as an independent oracle.
"""

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .moebius import (
    DomainError,
    Jet2,
    closed_disk_point,
    jet_compose,
    jet_div,
    jet_mul,
    jet_scale,
    require_finite,
    require_int,
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
    "evaluate",
    "eval_jet",
    "PrescribedData",
    "schur_parametrize",
    "dieudonne_parametrize",
    "RandomFunctionConfig",
    "random_schur_function",
    "random_blaschke_product",
    "complex_to_pair",
    "pair_to_complex",
    "expr_from_obj",
    "function_to_json",
    "function_from_json",
]


class FunctionExpr:
    """Base class for expression nodes.  Nodes are frozen and hashable."""

    __slots__ = ()

    def value(self, z):
        raise NotImplementedError

    def jet(self, z0):
        raise NotImplementedError

    def to_obj(self):
        """JSON-ready dict; complex scalars appear as [re, im] pairs."""
        raise NotImplementedError


@dataclass(frozen=True)
class Identity(FunctionExpr):
    def value(self, z):
        return z

    def jet(self, z0):
        return Jet2(z0, 1.0 + 0j, 0j)

    def to_obj(self):
        return {"node": "identity"}


@dataclass(frozen=True)
class Constant(FunctionExpr):
    c: complex

    def __post_init__(self):
        object.__setattr__(self, "c", closed_disk_point(self.c, "c"))

    def value(self, z):
        return self.c

    def jet(self, z0):
        return Jet2(self.c, 0j, 0j)

    def to_obj(self):
        return {"node": "constant", "c": complex_to_pair(self.c)}


@dataclass(frozen=True)
class Rotation(FunctionExpr):
    """e^{i theta} * child(z)."""

    theta: float
    child: FunctionExpr

    def __post_init__(self):
        t = float(self.theta)
        if not math.isfinite(t):
            raise DomainError("theta must be finite")
        object.__setattr__(self, "theta", t)

    def value(self, z):
        return cmath.exp(1j * self.theta) * self.child.value(z)

    def jet(self, z0):
        return jet_scale(cmath.exp(1j * self.theta), self.child.jet(z0))

    def to_obj(self):
        return {"node": "rotation", "theta": self.theta, "child": self.child.to_obj()}


@dataclass(frozen=True)
class MobiusT(FunctionExpr):
    """T_a(child(z)) with T_a(w) = (w + a) / (1 + conj(a) w)."""

    a: complex
    child: FunctionExpr

    def __post_init__(self):
        object.__setattr__(self, "a", unit_disk_point(self.a, "a"))

    def value(self, z):
        v = self.child.value(z)
        return (v + self.a) / (1.0 + self.a.conjugate() * v)

    def jet(self, z0):
        x = self.child.jet(z0)
        ac = self.a.conjugate()
        num = Jet2(x.f0 + self.a, x.f1, x.f2)
        den = Jet2(1.0 + ac * x.f0, ac * x.f1, ac * x.f2)
        return jet_div(num, den)

    def to_obj(self):
        return {"node": "mobius", "a": complex_to_pair(self.a), "child": self.child.to_obj()}


@dataclass(frozen=True)
class Product(FunctionExpr):
    left: FunctionExpr
    right: FunctionExpr

    def value(self, z):
        return self.left.value(z) * self.right.value(z)

    def jet(self, z0):
        return jet_mul(self.left.jet(z0), self.right.jet(z0))

    def to_obj(self):
        return {"node": "product", "left": self.left.to_obj(), "right": self.right.to_obj()}


@dataclass(frozen=True)
class Compose(FunctionExpr):
    outer: FunctionExpr
    inner: FunctionExpr

    def value(self, z):
        return self.outer.value(self.inner.value(z))

    def jet(self, z0):
        ji = self.inner.jet(z0)
        jo = self.outer.jet(ji.f0)
        return jet_compose(jo, ji)

    def to_obj(self):
        return {"node": "compose", "outer": self.outer.to_obj(), "inner": self.inner.to_obj()}


@dataclass(frozen=True)
class Bracket(FunctionExpr):
    """[child(z), w] = (child(z) - w) / (1 - conj(w) child(z))."""

    w: complex
    child: FunctionExpr

    def __post_init__(self):
        object.__setattr__(self, "w", unit_disk_point(self.w, "w"))

    def value(self, z):
        v = self.child.value(z)
        return (v - self.w) / (1.0 - self.w.conjugate() * v)

    def jet(self, z0):
        x = self.child.jet(z0)
        wc = self.w.conjugate()
        num = Jet2(x.f0 - self.w, x.f1, x.f2)
        den = Jet2(1.0 - wc * x.f0, -wc * x.f1, -wc * x.f2)
        return jet_div(num, den)

    def to_obj(self):
        return {"node": "bracket", "w": complex_to_pair(self.w), "child": self.child.to_obj()}


def evaluate(f, z):
    """Evaluate a tree at a point of the open disk."""
    z = unit_disk_point(z, "z")
    return f.value(z)


def eval_jet(f, z0):
    """Second-order jet of a tree at a point of the open disk."""
    z0 = unit_disk_point(z0, "z0")
    return f.jet(z0)


@dataclass(frozen=True)
class PrescribedData:
    """Interpolation data: value delta0 and hyperbolic derivative delta1 at z0.

    delta1 is the invariant first derivative (1-|z0|^2) g'(z0) / (1-|g(z0)|^2),
    so |delta1| <= 1 by Schwarz-Pick.
    """

    z0: complex
    delta0: complex
    delta1: complex

    def __post_init__(self):
        object.__setattr__(self, "z0", unit_disk_point(self.z0, "z0"))
        object.__setattr__(self, "delta0", unit_disk_point(self.delta0, "delta0"))
        object.__setattr__(self, "delta1", closed_disk_point(self.delta1, "delta1"))


def schur_parametrize(data, gstar):
    """All self-maps with value delta0 and hyperbolic derivative delta1 at z0.

    Returns T_{delta0}( T_{-z0}(z) * T_{delta1}( T_{-z0}(z) * g*(z) ) ) for a
    free Schur-class parameter g*.  Requires |delta1| < 1: on the boundary the
    class collapses to a single degree-1 Blaschke product, available from
    ``diskvar.extremal``.
    """
    if abs(data.delta1) >= 1.0:
        raise DomainError(
            "schur_parametrize needs |delta1| < 1; the |delta1| = 1 case is a "
            "single extremal function"
        )
    u = MobiusT(-data.z0, Identity())
    return MobiusT(data.delta0, Product(u, MobiusT(data.delta1, Product(u, gstar))))


def dieudonne_parametrize(z0, w0, fstar):
    """All self-maps with f(0) = 0 and f(z0) = w0, via f = z T_{u0}(T_{-z0}(z) f*).

    u0 = w0/z0 must lie in the open disk, i.e. |w0| < |z0|.
    """
    z0 = unit_disk_point(z0, "z0")
    w0 = require_finite(w0, "w0")
    if abs(w0) >= abs(z0):
        raise DomainError("dieudonne_parametrize requires |w0| < |z0|")
    u0 = w0 / z0
    u = MobiusT(-z0, Identity())
    return Product(Identity(), MobiusT(u0, Product(u, fstar)))


@dataclass(frozen=True)
class RandomFunctionConfig:
    """Deterministic sampler configuration.

    Samples are reproducible per (seed, index); each index gets an
    independent substream.
    """

    seed: int
    max_blaschke_degree: int = 4
    zero_modulus_cap: float = 0.95

    def __post_init__(self):
        object.__setattr__(self, "seed", require_int(self.seed, "seed"))
        degree = require_int(self.max_blaschke_degree, "max_blaschke_degree")
        object.__setattr__(self, "max_blaschke_degree", degree)
        if not 0.0 < float(self.zero_modulus_cap) < 1.0:
            raise DomainError("zero_modulus_cap must lie in (0, 1)")
        object.__setattr__(self, "zero_modulus_cap", float(self.zero_modulus_cap))


def substream(seed, *key):
    """Independent RNG substream keyed by (seed, *key)."""
    return np.random.default_rng([int(seed)] + [int(k) for k in key])


def disk_sample(rng, cap):
    """Area-uniform point with |z| <= cap."""
    return cap * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())


def _blaschke_tree(rng, degree, cap):
    factors = None
    for _ in range(degree):
        b = Bracket(disk_sample(rng, cap), Identity())
        factors = b if factors is None else Product(factors, b)
    return Rotation(rng.random() * 2.0 * math.pi, factors)


def _schur_tree(rng, max_degree, cap):
    degree = int(rng.integers(0, max_degree + 1))
    if degree == 0:
        base = Constant(disk_sample(rng, cap))
    else:
        base = _blaschke_tree(rng, degree, cap)
    if rng.random() < 0.5:
        # interior scaling keeps the sample away from the extremal class
        base = Product(Constant(complex(rng.random())), base)
    if rng.random() < 0.5:
        base = MobiusT(disk_sample(rng, cap), base)
    return base


def random_schur_function(cfg, index=0):
    """Random Schur-class tree: a finite Blaschke product of degree up to
    cfg.max_blaschke_degree (degree 0 gives a constant), optionally scaled
    into the interior and transported by a random T_c."""
    rng = substream(cfg.seed, 0, index)
    return _schur_tree(rng, cfg.max_blaschke_degree, cfg.zero_modulus_cap)


def random_blaschke_product(cfg, index=0, degree=None):
    """Random finite Blaschke product of the given degree (>= 1).

    With degree None the degree is drawn uniformly from
    {1, ..., cfg.max_blaschke_degree}.
    """
    rng = substream(cfg.seed, 1, index)
    if degree is None:
        if cfg.max_blaschke_degree < 1:
            raise DomainError("max_blaschke_degree must be >= 1 to draw a degree")
        degree = int(rng.integers(1, cfg.max_blaschke_degree + 1))
    if degree < 1:
        raise DomainError("Blaschke degree must be >= 1")
    return _blaschke_tree(rng, int(degree), cfg.zero_modulus_cap)


def complex_to_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _json_real(x):
    """A JSON number as a float; bools, strings and overflowing integers are refused."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise DomainError(f"expected a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise DomainError(f"number out of range: {x!r}") from None


def pair_to_complex(p):
    if not isinstance(p, (list, tuple)) or len(p) != 2:
        raise DomainError(f"expected [re, im] pair, got {p!r}")
    return complex(_json_real(p[0]), _json_real(p[1]))


# node tag -> (class, fields in constructor order); a field without a reader
# holds a child node
_NODES = {
    "identity": (Identity, ()),
    "constant": (Constant, (("c", pair_to_complex),)),
    "rotation": (Rotation, (("theta", _json_real), ("child", None))),
    "mobius": (MobiusT, (("a", pair_to_complex), ("child", None))),
    "product": (Product, (("left", None), ("right", None))),
    "compose": (Compose, (("outer", None), ("inner", None))),
    "bracket": (Bracket, (("w", pair_to_complex), ("child", None))),
}

# evaluating or serialising a tree recurses once per level, so deeper
# documents are refused well inside Python's default recursion limit (1000)
_MAX_TREE_DEPTH = 500


def expr_from_obj(obj):
    """Inverse of ``FunctionExpr.to_obj``.  Unknown or missing fields,
    non-numeric components and trees deeper than ``_MAX_TREE_DEPTH`` levels
    raise DomainError."""
    return _node_from_obj(obj, 1)


def _node_from_obj(obj, depth):
    if depth > _MAX_TREE_DEPTH:
        raise DomainError(f"function tree is deeper than {_MAX_TREE_DEPTH} levels")
    if not isinstance(obj, dict) or "node" not in obj:
        raise DomainError(f"not a function node: {obj!r}")
    node = obj["node"]
    if not isinstance(node, str) or node not in _NODES:
        raise DomainError(f"unknown node tag {node!r}")
    cls, fields = _NODES[node]
    unknown = set(obj) - {"node"} - {name for name, _ in fields}
    if unknown:
        raise DomainError(f"node {node!r} has unknown fields {sorted(map(str, unknown))}")
    args = []
    for name, read in fields:
        if name not in obj:
            raise DomainError(f"node {node!r} is missing field {name!r}")
        args.append(_node_from_obj(obj[name], depth + 1) if read is None else read(obj[name]))
    return cls(*args)


def function_to_json(f, indent=None):
    return json.dumps(f.to_obj(), indent=indent)


def function_from_json(text):
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # the decoder recurses per nesting level too
        raise DomainError(f"not a function document: {exc}") from None
    return expr_from_obj(obj)
