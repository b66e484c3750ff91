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
    _NODES,
    _expr_from_obj,
    dieudonne_parametrize,
    eval_jet,
    function_from_json,
    function_to_json,
    random_blaschke_product,
    random_schur_function,
    schur_parametrize,
    substream,
)
from diskvar import harness
from diskvar.extremal import KINDS, make_extremal
from diskvar.moebius import DomainError, Jet2, PoleError, jet_div

from oracles import disk_sample, fd_jet, lane_params, rel_err


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
    assert Identity().value(z) == z
    assert Constant(0.4j).value(z) == 0.4j
    assert abs(Rotation(math.pi, Identity()).value(z) + z) < 1e-15
    assert abs(MobiusT(0.5, Identity()).value(0.5 + 0j) - 0.8) < 1e-15
    assert abs(Product(Identity(), Identity()).value(z) - z * z) < 1e-15
    sq = Product(Identity(), Identity())
    assert abs(Compose(sq, sq).value(z) - z**4) < 1e-15
    assert abs(Bracket(0.5, Identity()).value(0.5 + 0j)) < 1e-15


def test_eval_jet_validates_point():
    for z0 in (1.0, 1.0 + 0j, None, [0.1, 0.2]):
        with pytest.raises(DomainError):
            eval_jet(Identity(), z0)


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
    assert a == b  # trees are frozen records, equality is structural
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
                assert abs(f.value(z)) <= 1.0 + 1e-12
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
    for degree in (2.5, True, 5):
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
    assert abs(f.value(0j)) < 1e-12
    assert abs(f.value(z0) - w0) < 1e-11


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
        _expr_from_obj({"node": "spline"})
    with pytest.raises(DomainError):
        _expr_from_obj({"kind": "identity"})
    with pytest.raises(DomainError):
        _expr_from_obj({"node": "mobius", "a": [0.1, 0.0]})  # missing child
    with pytest.raises(DomainError):
        _expr_from_obj({"node": "constant", "c": [0.1]})
    with pytest.raises(DomainError, match="unknown fields"):
        _expr_from_obj({"node": "identity", "junk": 1})
    with pytest.raises(DomainError):
        _expr_from_obj({"node": "constant", "c": [True, False]})
    for c in (["0.1", 0.0], [10**400, 0.0]):
        with pytest.raises(DomainError):
            _expr_from_obj({"node": "constant", "c": c})
    for theta in ("0.5", True, 10**400):
        with pytest.raises(DomainError, match="theta must be a finite real number"):
            _expr_from_obj({"node": "rotation", "theta": theta, "child": {"node": "identity"}})
    with pytest.raises(DomainError):
        _expr_from_obj({"node": ["identity"]})
    # nesting deeper than the evaluator can follow is refused, from a dict
    # and from a JSON document
    deep = {"node": "identity"}
    for _ in range(3000):
        deep = {"node": "rotation", "theta": 0.1, "child": deep}
    with pytest.raises(DomainError, match="deeper"):
        _expr_from_obj(deep)
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


def test_a_tree_of_lanes_has_no_json_form():
    # each refusal names the node and the field that holds lanes
    lanes = make_extremal("schwarz-pick", z0=np.array([0.1, 0.2j]), delta0=np.array([0j, 0.3]), alpha=1.0)
    with pytest.raises(DomainError, match=r"^node 'mobius' holds lanes in 'a': a tree of lanes has no JSON form$"):
        function_to_json(lanes)
    turned = Rotation(np.array([0.1, 0.2]), Identity())
    with pytest.raises(DomainError, match=r"^node 'rotation' holds lanes in 'theta'"):
        turned.to_obj()
    with pytest.raises(DomainError, match=r"^node 'rotation' holds lanes in 'theta'"):
        function_to_json(turned)
    # a numpy scalar is no batch
    assert function_to_json(Rotation(np.float64(0.5), Constant(np.complex128(0.25j)))) == function_to_json(
        Rotation(0.5, Constant(0.25j))
    )


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
    """A leaf with a given value and jet, truncated to the order it is asked
    for; ``asked`` records those orders."""

    def __init__(self, jet):
        self.fixed = jet
        self.asked = []

    def jet(self, z0, order=2):
        self.asked.append(order)
        return Jet2(*self.fixed[: order + 1])


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


# -- jets to order 0, 1 and 2 --------------------------------------------------


def _assert_truncations_agree(tree, z0):
    """tree.jet(z0, k) is the first k + 1 components of tree.jet(z0), bit for
    bit, and None beyond them; the order-0 jet is tree.value(z0)."""
    full = tree.jet(z0)
    for k in (0, 1):
        jet = tree.jet(z0, k)
        assert jet[k + 1 :] == (None,) * (2 - k)
        assert [np.asarray(c, complex).tobytes() for c in jet[: k + 1]] == [
            np.asarray(c, complex).tobytes() for c in full[: k + 1]
        ]
    assert np.asarray(tree.value(z0), complex).tobytes() == np.asarray(full.f0, complex).tobytes()


def test_a_truncated_jet_is_the_full_jet_cut_short_on_every_grid_extremal():
    trees = 0
    for spec in KINDS.values():
        for point in spec.grid():
            for free, _ in point.rows:
                _assert_truncations_agree(make_extremal(spec.kind, **point.data, **free), point.data["z0"])
                for i in range(point.data["z0"].size):
                    params = lane_params(point, free, i)
                    _assert_truncations_agree(make_extremal(spec.kind, **params), params["z0"])
                    trees += 1
    assert trees == 1753  # the lanes test_rational.py checks


def test_a_truncated_jet_is_the_full_jet_cut_short_on_random_trees():
    for index in range(300):
        _assert_truncations_agree(random_schur_function(9, index), disk_sample(substream(9, 7, index), 0.9))


@pytest.mark.parametrize("family", harness.MEMBERSHIP_FAMILIES)
def test_a_truncated_jet_is_the_full_jet_cut_short_on_a_membership_template(family):
    p = harness._draw_block(family, substream(SEED, harness._FAMILY_TAGS[family], 0), slice(None))
    gstar = harness._SchurTemplate(p)
    z0 = p["z0"]
    _assert_truncations_agree(gstar, z0)
    if family == "second":
        _assert_truncations_agree(schur_parametrize(PrescribedData(z0, p["delta0"], p["delta1"]), gstar), z0)
    else:
        _assert_truncations_agree(dieudonne_parametrize(z0, p["w0"], gstar), z0)


def test_a_schur_step_asks_its_free_parameter_for_its_value_alone():
    # u(z0) = 0, so g''(z0) = c2 + rho2 g*(z0) and f'(z0) = c1 + rho1 (z0/|z0|) f*(z0)
    z0 = 0.4 - 0.2j
    leaf = _FixedJet(Jet2(0.3 + 0.1j, 0.2j, -0.4 + 0j))
    data = PrescribedData(z0, 0.1 + 0.5j, -0.3 + 0.2j)
    g = schur_parametrize(data, leaf)
    assert g.jet(z0).f2 is not None
    assert leaf.asked == [0]
    leaf.asked.clear()
    f = dieudonne_parametrize(z0, 0.1 + 0.1j, leaf)
    assert f.jet(z0, 1).f1 is not None
    assert leaf.asked == [0]


def test_a_value_is_the_order_0_jet_of_one_formula_per_node():
    for cls in (*_NODES.values(), harness._SchurTemplate):
        assert cls.value is FunctionExpr.value, cls.__name__


def test_a_value_at_a_rounded_pole_raises_pole_error():
    # 1 + conj(a) c rounds to 0, in the scalar tree and in the first lane
    scalar = MobiusT(-0.9999999999999999, Constant(1.0000000000000002))
    lanes = MobiusT(np.array([-0.9999999999999999, 0.1]), Constant(np.array([1.0000000000000002, 0.2])))
    for tree in (scalar, lanes):
        with pytest.raises(PoleError):
            tree.value(0.0)
        with pytest.raises(PoleError):
            eval_jet(tree, 0.0)


@pytest.mark.parametrize("order", [-1, 3, 1.5, True])
def test_a_jet_order_other_than_0_1_or_2_is_refused(order):
    two_steps = schur_parametrize(PrescribedData(0.3, 0.2j, 0.1), Constant(0.5))
    for tree in (Identity(), Constant(0.5), random_schur_function(SEED), two_steps):
        with pytest.raises(DomainError, match="order"):
            tree.jet(0.1 + 0.2j, order)
