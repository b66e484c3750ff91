"""Every tree as a rational function p/q: a second representation of the
trees, against which their jets and the paper's form of the extremal
functions (finite Blaschke products of stated degrees) are checked."""

import numpy as np

from diskvar.extremal import KINDS, make_extremal
from diskvar.functions import eval_jet, random_schur_function, substream

from oracles import disk_sample, inner_misfit, lane_params, rational, rational_jet

# the Blaschke degree of each kind's extremals at a unimodular alpha or delta1
DEGREES = {
    "schwarz-pick": 1,
    "second-degenerate": 1,
    "sharp-deg1": 1,
    "dieudonne": 2,
    "second-boundary": 2,
    "dieudonne2-degenerate": 2,
    "sharp-deg2": 2,
    "szasz": 2,
    "dieudonne2-boundary": 3,
}


def _assert_jets_match(tree, z):
    p, q = rational(tree)
    jet = eval_jet(tree, z)
    tol = 1e-13 * (1.0 + abs(jet.f2))
    for ours, theirs in zip(rational_jet(p, q, z), jet):
        assert abs(ours - theirs) <= tol, (tree, z)
    return p, q


def test_every_grid_extremal_is_a_blaschke_product_of_its_kinds_degree():
    assert set(DEGREES) == {kind.value for kind in KINDS}
    rows = {"inner": 0, "interior": 0}
    for spec in KINDS.values():
        for point in spec.grid():
            for free, _ in point.rows:
                for i in range(point.data["z0"].size):
                    params = lane_params(point, free, i)
                    p, q = _assert_jets_match(make_extremal(spec.kind, **params), params["z0"])
                    if abs(params.get("alpha", 1.0)) < 1.0 - 1e-9:
                        # c2 + rho2 alpha inside the disk: not an extremal
                        assert inner_misfit(p, q) > 1e-3
                        rows["interior"] += 1
                        continue
                    assert len(p) - 1 == DEGREES[spec.kind.value]
                    assert inner_misfit(p, q) <= 1e-12
                    # every zero inside the disk, so none cancels a pole
                    # (the poles are the zeros reflected in the circle)
                    zeros = np.roots(p[::-1])
                    assert len(zeros) == len(p) - 1 and np.all(abs(zeros) < 1.0)
                    rows["inner"] += 1
    # the lanes test_contract.py's tree digest serializes
    assert sum(rows.values()) == 1753 and rows["interior"] == 48


def test_random_schur_trees_as_p_over_q_have_the_same_jets():
    for index in range(300):
        _assert_jets_match(random_schur_function(9, index), disk_sample(substream(9, 7, index), 0.9))
