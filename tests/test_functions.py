import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskvar.functions import (
    Bracket,
    Compose,
    Constant,
    FunctionExpr,
    Identity,
    MobiusT,
    PrescribedData,
    Product,
    Rotation,
    dieudonne_parametrize,
    disk_sample,
    eval_jet,
    evaluate,
    expr_from_obj,
    function_from_json,
    function_to_json,
    random_blaschke_product,
    random_schur_function,
    schur_parametrize,
    substream,
)
from diskvar.moebius import DomainError, Jet2, jet_div

from oracles import fd_jet, rel_err


def polar(max_modulus):
    return st.builds(
        lambda m, p: complex(m * math.cos(p), m * math.sin(p)),
        st.floats(min_value=0.0, max_value=max_modulus),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )


disk_pts = polar(0.9)

SEED = 20240611


def test_node_values():
    z = 0.2 + 0.3j
    assert evaluate(Identity(), z) == z
    assert evaluate(Constant(0.4j), z) == 0.4j
    assert abs(evaluate(Rotation(math.pi, Identity()), z) + z) < 1e-15
    assert abs(evaluate(MobiusT(0.5, Identity()), 0.5) - 0.8) < 1e-15
    assert abs(evaluate(Product(Identity(), Identity()), z) - z * z) < 1e-15
    sq = Product(Identity(), Identity())
    assert abs(evaluate(Compose(sq, sq), z) - z**4) < 1e-15
    assert abs(evaluate(Bracket(0.5, Identity()), 0.5)) < 1e-15


def test_evaluate_validates_point():
    with pytest.raises(DomainError):
        evaluate(Identity(), 1.0)
    with pytest.raises(DomainError):
        eval_jet(Identity(), 1.0 + 0j)


def test_rotation_theta_must_be_a_finite_real():
    for bad in ("abc", True, 10**400, float("inf")):
        with pytest.raises(DomainError, match="theta must be a finite real number"):
            Rotation(bad, Identity())
    assert Rotation(2, Identity()).theta == 2.0


def test_constant_accepts_unimodular():
    c = Constant(cmath.exp(0.4j))
    assert abs(abs(c.c) - 1.0) < 1e-12
    with pytest.raises(DomainError):
        Constant(1.0 + 1e-6)


def test_eval_jet_square():
    j = eval_jet(Product(Identity(), Identity()), 0.3 + 0.1j)
    assert abs(j.f1 - 2 * (0.3 + 0.1j)) < 1e-15
    assert abs(j.f2 - 2.0) < 1e-15


@settings(max_examples=60, deadline=None)
@given(index=st.integers(min_value=0, max_value=10_000))
def test_random_tree_jets_match_finite_differences(index):
    f = random_schur_function(SEED, index=index)
    z = disk_sample(substream(SEED, 5, index), 0.9)
    jet = eval_jet(f, z)
    f0, f1, f2 = fd_jet(f, z)
    assert rel_err(jet.f0, f0) < 1e-9
    assert rel_err(jet.f1, f1) < 1e-7
    assert rel_err(jet.f2, f2) < 1e-7


def test_sampler_is_deterministic():
    a = random_schur_function(SEED, index=3)
    b = random_schur_function(SEED, index=3)
    assert a == b  # trees are frozen dataclasses, equality is structural
    assert any(random_schur_function(SEED, index=i) != a for i in range(4, 10))


def _nodes(f):
    yield f
    for child in vars(f).values():
        if isinstance(child, FunctionExpr):
            yield from _nodes(child)


def test_sampler_respects_fixed_caps():
    # at most 4 Blaschke zeros, each of modulus <= 0.95
    degrees = set()
    for i in range(200):
        for f in (random_schur_function(7, index=i), random_blaschke_product(7, index=i)):
            zeros = [node.w for node in _nodes(f) if isinstance(node, Bracket)]
            degrees.add(len(zeros))
            assert all(abs(w) <= 0.95 for w in zeros)
            for z in (0j, 0.4 + 0.4j, -0.7j):
                assert abs(evaluate(f, z)) <= 1.0 + 1e-12
    assert degrees == {0, 1, 2, 3, 4}


def test_blaschke_product_unimodular_on_circle():
    for i in range(20):
        b = random_blaschke_product(SEED, index=i)
        for k in range(8):
            z = cmath.exp(2j * math.pi * k / 8)
            assert abs(abs(b.value(z)) - 1.0) < 1e-11


def test_blaschke_degree_argument():
    b = random_blaschke_product(SEED, index=0, degree=3)
    # a degree-3 product has three bracket factors; count them in the tree
    text = function_to_json(b)
    assert text.count('"bracket"') == 3
    with pytest.raises(DomainError):
        random_blaschke_product(SEED, index=0, degree=0)


def test_sampler_argument_validation():
    # seed, index and degree are checked, not truncated
    for args in ((-1,), (1.5,), ("3",), (1, 2.5), (1, -1)):
        with pytest.raises(DomainError):
            random_schur_function(*args)
        with pytest.raises(DomainError):
            random_blaschke_product(*args)
    for degree in (2.5, True):
        with pytest.raises(DomainError):
            random_blaschke_product(1, degree=degree)


@settings(max_examples=100, deadline=None)
@given(z0=disk_pts, d0=disk_pts, d1=polar(0.98), alpha=polar(0.95))
def test_schur_parametrize_interpolates(z0, d0, d1, alpha):
    data = PrescribedData(z0, d0, d1)
    g = schur_parametrize(data, Constant(alpha))
    jet = eval_jet(g, z0)
    assert abs(jet.f0 - d0) < 1e-11
    # hyperbolic derivative at z0 equals delta1
    hyp = jet.f1 * (1.0 - abs(z0) ** 2) / (1.0 - abs(d0) ** 2)
    assert abs(hyp - d1) < 1e-9


def test_schur_parametrize_rejects_unimodular_delta1():
    with pytest.raises(DomainError):
        schur_parametrize(PrescribedData(0.3, 0.2, cmath.exp(0.2j)), Constant(0j))


@settings(max_examples=100, deadline=None)
@given(z0=polar(0.9), ratio=polar(0.9), alpha=polar(0.9))
def test_dieudonne_parametrize_interpolates(z0, ratio, alpha):
    if abs(z0) < 1e-3:
        z0 = z0 + 0.5
    w0 = ratio * z0
    f = dieudonne_parametrize(z0, w0, Constant(alpha))
    assert abs(evaluate(f, 0j)) < 1e-12
    assert abs(evaluate(f, z0) - w0) < 1e-11


def test_dieudonne_parametrize_rejects_large_w0():
    with pytest.raises(DomainError):
        dieudonne_parametrize(0.5, 0.6, Constant(0j))
    with pytest.raises(DomainError):
        dieudonne_parametrize(0.0, 0.0, Constant(0j))


def test_prescribed_data_validation():
    with pytest.raises(DomainError):
        PrescribedData(1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        PrescribedData(0.5, 1.0, 0.0)
    # delta1 on the closed disk boundary is legal data
    PrescribedData(0.5, 0.5, cmath.exp(1j))


@settings(max_examples=60, deadline=None)
@given(index=st.integers(min_value=0, max_value=10_000))
def test_json_roundtrip(index):
    f = random_schur_function(SEED, index=index)
    g = function_from_json(function_to_json(f))
    assert f == g
    z = disk_sample(substream(SEED, 6, index), 0.9)
    assert eval_jet(f, z) == eval_jet(g, z)


def test_expr_from_obj_errors():
    with pytest.raises(DomainError):
        expr_from_obj({"node": "spline"})
    with pytest.raises(DomainError):
        expr_from_obj({"kind": "identity"})
    with pytest.raises(DomainError):
        expr_from_obj({"node": "mobius", "a": [0.1, 0.0]})  # missing child
    with pytest.raises(DomainError):
        expr_from_obj({"node": "constant", "c": [0.1]})
    with pytest.raises(DomainError, match="unknown fields"):
        expr_from_obj({"node": "identity", "junk": 1})
    with pytest.raises(DomainError):
        expr_from_obj({"node": "constant", "c": [True, False]})
    for c in (["0.1", 0.0], [10**400, 0.0]):
        with pytest.raises(DomainError):
            expr_from_obj({"node": "constant", "c": c})
    for theta in ("0.5", True, 10**400):
        with pytest.raises(DomainError, match="theta must be a finite real number"):
            expr_from_obj({"node": "rotation", "theta": theta, "child": {"node": "identity"}})
    with pytest.raises(DomainError):
        expr_from_obj({"node": ["identity"]})
    # nesting deeper than the evaluator can follow is refused, from a dict
    # and from a JSON document
    deep = {"node": "identity"}
    for _ in range(3000):
        deep = {"node": "rotation", "theta": 0.1, "child": deep}
    with pytest.raises(DomainError, match="deeper"):
        expr_from_obj(deep)
    text = '{"node":"rotation","theta":0.1,"child":' * 3000 + '{"node":"identity"}' + "}" * 3000
    with pytest.raises(DomainError):
        function_from_json(text)
    with pytest.raises(DomainError):
        function_from_json("{")
    # the depth cap leaves room for trees that evaluate
    shallow = {"node": "identity"}
    for _ in range(499):
        shallow = {"node": "rotation", "theta": 0.1, "child": shallow}
    assert eval_jet(function_from_json(json.dumps(shallow)), 0.2).f0 == pytest.approx(0.2 * cmath.exp(49.9j))


def test_trees_deeper_than_the_cap_are_refused_when_built():
    # a chain 3,000 deep would raise RecursionError in jet and to_obj
    g = Identity()
    with pytest.raises(DomainError, match="deeper than 500 levels"):
        for _ in range(3000):
            g = Rotation(0.1, g)
    # the last tree built has 500 levels: it evaluates and serialises
    assert eval_jet(g, 0.2).f0 == pytest.approx(0.2 * cmath.exp(49.9j))
    assert function_to_json(function_from_json(function_to_json(g))) == function_to_json(g)
    # every node is one level deeper than its deepest child
    parents = (
        lambda c: Rotation(0.1, c),
        lambda c: MobiusT(0.1, c),
        lambda c: Bracket(0.1, c),
        lambda c: Product(Identity(), c),
        lambda c: Product(c, Identity()),
        lambda c: Compose(Identity(), c),
        lambda c: Compose(c, Identity()),
    )
    for parent in parents:
        parent(g.child)
        with pytest.raises(DomainError, match="deeper"):
            parent(g)


class _FixedJet(FunctionExpr):
    """A leaf with a given value and jet."""

    def __init__(self, jet):
        self.fixed = jet

    def value(self, z):
        return self.fixed.f0

    def jet(self, z0):
        return self.fixed


def _bracket_in_w(w, x):
    """The bracket's value and jet at x, in the (v - w) / (1 - conj(w) v) form."""
    wc = w.conjugate()
    value = (x.f0 - w) / (1.0 - wc * x.f0)
    return value, jet_div(Jet2(x.f0 - w, x.f1, x.f2), Jet2(1.0 - wc * x.f0, -wc * x.f1, -wc * x.f2))


def _bits(*values):
    return np.array(values, dtype=complex).tobytes()


def test_bracket_is_the_mobius_formula_bit_for_bit():
    # Bracket(w, .) evaluates T_{-w}; written in w it gives the same bits
    rng = substream(SEED, 3)
    w, f0 = disk_sample(rng, 0.95, 4096), disk_sample(rng, 1.0, 4096)
    f1, f2 = (4.0 * disk_sample(rng, 1.0, 4096) for _ in range(2))
    lanes = Jet2(f0, f1, f2)
    node = Bracket(w, _FixedJet(lanes))
    value, jet = _bracket_in_w(w, lanes)
    assert _bits(node.value(0.0), *node.jet(0.0)) == _bits(value, *jet)
    for i in range(0, 4096, 4):
        x = Jet2(*(complex(part[i]) for part in lanes))
        node = Bracket(complex(w[i]), _FixedJet(x))
        value, jet = _bracket_in_w(complex(w[i]), x)
        assert _bits(node.value(0.0), *node.jet(0.0)) == _bits(value, *jet)


def test_substream_independence():
    # identical (seed, key) gives identical draws, different keys differ
    a = substream(11, 2, 5).random(4).tolist()
    b = substream(11, 2, 5).random(4).tolist()
    c = substream(11, 2, 6).random(4).tolist()
    assert a == b
    assert a != c


def test_disk_sample_stays_in_cap():
    rng = substream(3, 1)
    for _ in range(200):
        assert abs(disk_sample(rng, 0.7)) <= 0.7 + 1e-15
