"""The reference behaviour, pinned exactly.

The seed-42 reports of the three suites, one ``extremal verify
--emit-function`` document per extremal kind and the JSON text of thousands
of trees must stay byte-identical: a changed sample stream, a dropped, added
or changed attainment row, or a changed extremal tree, jet or serialization,
fails here.
"""

import hashlib
import json

import pytest

from diskvar import harness
from diskvar.cli import cli_main
from diskvar.extremal import KINDS, ExtremalKind, make_extremal
from diskvar.functions import (
    function_from_json,
    function_to_json,
    random_blaschke_product,
    random_schur_function,
)
from diskvar.harness import (
    MEMBERSHIP_FAMILIES,
    HarnessConfig,
    run_attainment_suite,
    run_membership_suite,
    run_tightness_search,
)

from oracles import lane_params

ROWS_BY_KIND = {
    "schwarz-pick": 192,
    "dieudonne": 144,
    "second-degenerate": 96,
    "second-boundary": 849,
    "dieudonne2-degenerate": 144,
    "dieudonne2-boundary": 324,
    "sharp-deg1": 100,
    "sharp-deg2": 100,
    "szasz": 20,
}


def test_seed42_attainment_report():
    kinds = [kind.value for kind in ExtremalKind]
    report = run_attainment_suite(HarnessConfig(seed=42, samples=10000))
    assert report.to_obj() == {
        "suite": "attainment",
        "samples": 1969,
        "violations": 0,
        "worst_margin": -6.601255489947691e-15,
        "details": {"kinds": kinds, "violations_by_kind": dict.fromkeys(kinds, 0)},
    }


def test_seed42_tightness_report():
    report = run_tightness_search(HarnessConfig(seed=42, samples=10000), 0.5, 0.25)
    assert report.to_obj() == {
        "suite": "tightness",
        "samples": 20009,
        "violations": 0,
        "worst_margin": 1.3322676295501878e-15,
        "details": {
            "r": 0.5,
            "R": 0.25,
            "branch": "deg2",
            "bound": 3.611111111111111,
            "best": 3.61111111111111,
            "gap": 1.3322676295501878e-15,
        },
    }


# sha256 of the seed-42 membership, attainment and tightness (r = 0.5,
# R = 0.25) reports, as json.dumps({...}, sort_keys=True)
SEED42_REPORT_SHA256 = "f5c0ded4ed766cf86721e20e16ae06e755dcaa42fa567d1418c830478f6a4b5c"


def _sha256(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_seed42_report_hash():
    cfg = HarnessConfig(seed=42, samples=10000)
    reports = {
        "membership": run_membership_suite(cfg).to_obj(),
        "attainment": run_attainment_suite(cfg).to_obj(),
        "tightness": run_tightness_search(cfg, 0.5, 0.25).to_obj(),
    }
    # each suite's own digest tells which report moved
    suites = {suite: _sha256(obj) for suite, obj in reports.items()}
    assert _sha256(reports) == SEED42_REPORT_SHA256, f"the suites' own sha256: {suites}"


# sha256 of every membership margin, _membership_chunk's families x samples
# array as bytes, for each seed and sample count below in turn
MEMBERSHIP_MARGINS_SHA256 = "dad404e36ed008078194569e1af4e215cdb53716351b3b75e660091c85ac0f30"


def test_membership_margins_hash():
    digest = hashlib.sha256()
    for seed in (42, 1, 7, 12345):
        for n in (1, 250, 1024, 1025, 10000):
            cfg = HarnessConfig(seed=seed, samples=n)
            digest.update(harness._membership_chunk(cfg, MEMBERSHIP_FAMILIES, (0, n)).tobytes())
    assert digest.hexdigest() == MEMBERSHIP_MARGINS_SHA256


def test_attainment_rows_per_kind():
    cfg = HarnessConfig(seed=42, samples=10000)
    counts = {kind: run_attainment_suite(cfg, [kind]).samples for kind in ROWS_BY_KIND}
    assert counts == ROWS_BY_KIND


VERIFY_CASES = [
    (
        ["schwarz-pick", "--z0", "0.3,0", "--delta0", "0.1,0", "--alpha", "1,0"],
        '{"kind":"schwarz-pick","value":[0.1,0.0],"first":[1.0879120879120878,0.0],'
        '"second":[0.4782031155657528,0.0],"target":"boundary of disk(center=0j,'
        ' radius=1.0879120879120878)","distance":0.0,"tol":1e-08,"passed":true,'
        '"function":{"node":"mobius","a":[0.1,0.0],"child":{"node":"product",'
        '"left":{"node":"mobius","a":[-0.3,-0.0],"child":{"node":"identity"}},'
        '"right":{"node":"constant","c":[1.0,0.0]}}}}\n',
    ),
    (
        ["dieudonne", "--z0", "0.5,0", "--w0", "0.25,0", "--alpha", "0,1"],
        '{"kind":"dieudonne","value":[0.25,0.0],"first":[0.5,0.5],'
        '"second":[0.6666666666666666,2.6666666666666665],'
        '"target":"boundary of disk(center=(0.5+0j), radius=0.5)","distance":0.0,"tol":1e-08,'
        '"passed":true,"function":{"node":"product","left":{"node":"identity"},'
        '"right":{"node":"mobius","a":[0.5,0.0],"child":{"node":"product",'
        '"left":{"node":"mobius","a":[-0.5,-0.0],"child":{"node":"identity"}},'
        '"right":{"node":"constant","c":[0.0,1.0]}}}}}\n',
    ),
    (
        ["second-degenerate", "--z0", "0.4,0.1", "--delta0", "0.2,0", "--delta1", "0,1"],
        '{"kind":"second-degenerate","value":[0.2,0.0],"first":[0.0,1.1566265060240966],'
        '"second":[0.8361155465234433,1.1148207286979244],'
        '"target":"boundary of disk(center=(0.8361155465234433+1.1148207286979244j),'
        ' radius=0.0)","distance":0.0,"tol":1e-08,"passed":true,"function":{"node":"mobius",'
        '"a":[0.2,0.0],"child":{"node":"product","left":{"node":"mobius","a":[-0.4,-0.1],'
        '"child":{"node":"identity"}},"right":{"node":"constant","c":[0.0,1.0]}}}}\n',
    ),
    (
        ["second-boundary", "--z0", "0.4,0", "--delta0", "0.2,0", "--delta1", "0.3,0", "--alpha", "1,0"],
        '{"kind":"second-boundary","value":[0.2,0.0],"first":[0.34285714285714286,0.0],'
        '"second":[2.753741496598639,0.0],'
        '"target":"boundary of disk(center=(0.2775510204081633+0j),'
        ' radius=2.4761904761904767)","distance":1.3322676295501878e-15,"tol":1e-08,'
        '"passed":true,"function":{"node":"mobius","a":[0.2,0.0],"child":{"node":"product",'
        '"left":{"node":"mobius","a":[-0.4,-0.0],"child":{"node":"identity"}},'
        '"right":{"node":"mobius","a":[0.3,0.0],"child":{"node":"product",'
        '"left":{"node":"mobius","a":[-0.4,-0.0],"child":{"node":"identity"}},'
        '"right":{"node":"constant","c":[1.0,0.0]}}}}}}\n',
    ),
    (
        ["dieudonne2-degenerate", "--z0", "0.4,0", "--w0", "0,0.1", "--delta1=-1,0"],
        '{"kind":"dieudonne2-degenerate","value":[0.0,0.1],"first":[-0.44642857142857145,'
        '0.25],"second":[-2.6573129251700682,0.26573129251700683],'
        '"target":"boundary of disk(center=(-2.6573129251700682+0.2657312925170069j),'
        ' radius=0.0)","distance":5.551115123125783e-17,"tol":1e-08,"passed":true,'
        '"function":{"node":"product","left":{"node":"identity"},"right":{"node":"mobius",'
        '"a":[0.0,0.25],"child":{"node":"product","left":{"node":"mobius","a":[-0.4,-0.0],'
        '"child":{"node":"identity"}},"right":{"node":"constant","c":[-1.0,0.0]}}}}}\n',
    ),
    (
        ["dieudonne2-boundary", "--z0", "0.5,0", "--w0", "0.25,0", "--delta1", "0.3,0", "--alpha", "0,1"],
        '{"kind":"dieudonne2-boundary","value":[0.25,0.0],"first":[0.65,0.0],"second":[0.74,'
        '1.2133333333333334],"target":"boundary of disk(center=(0.74+0j),'
        ' radius=1.2133333333333334)","distance":0.0,"tol":1e-08,"passed":true,'
        '"function":{"node":"product","left":{"node":"identity"},"right":{"node":"mobius",'
        '"a":[0.5,0.0],"child":{"node":"product","left":{"node":"mobius","a":[-0.5,-0.0],'
        '"child":{"node":"identity"}},"right":{"node":"mobius","a":[0.3,0.0],'
        '"child":{"node":"product","left":{"node":"mobius","a":[-0.5,-0.0],'
        '"child":{"node":"identity"}},"right":{"node":"constant","c":[0.0,1.0]}}}}}}}\n',
    ),
    (
        ["sharp-deg1", "--z0", "0.5,0", "--delta0", "0.9,0"],
        '{"kind":"sharp-deg1","value":[0.8999999999999998,-1.1021821192326177e-16],'
        '"first":[-0.2533333333333338,3.102438557839967e-17],"second":[-0.9457777777777794,'
        '1.1582437282602542e-16],"target":"bound 0.9457777777777774",'
        '"distance":2.1129714519416756e-15,"tol":1e-08,"passed":true,'
        '"function":{"node":"rotation","theta":3.141592653589793,"child":{"node":"bracket",'
        '"w":[0.9655172413793103,0.0],"child":{"node":"identity"}}}}\n',
    ),
    (
        ["sharp-deg2", "--z0", "0.3,0.1", "--delta0=0.2,-0.4"],
        '{"kind":"sharp-deg2","value":[0.2,-0.4],"first":[-0.03595631086110882,'
        '0.25169417602776145],"second":[0.3693345346049035,2.031339940326972],'
        '"target":"bound 2.064642814537034","distance":2.1509251223662296e-16,"tol":1e-08,'
        '"passed":true,"function":{"node":"compose","outer":{"node":"mobius","a":[0.2,-0.4],'
        '"child":{"node":"product","left":{"node":"identity"},"right":{"node":"mobius",'
        '"a":[-0.04045084971874742,0.2831559480312316],"child":{"node":"product",'
        '"left":{"node":"constant","c":[0.17888543819998295,0.9838699100999075]},'
        '"right":{"node":"identity"}}}}},"inner":{"node":"mobius","a":[-0.3,-0.1],'
        '"child":{"node":"identity"}}}}\n',
    ),
    (
        ["szasz", "--z0", "0.5,0", "--theta", "1.1"],
        '{"kind":"szasz","value":[-0.014174878794549307,-0.027850230001919846],'
        '"first":[0.15592366674004243,0.3063525300211183],"second":[1.7151603341404664,'
        '3.369877830232301],"target":"bound 3.78125","distance":1.1744508029092565e-16,'
        '"tol":1e-08,"passed":true,"function":{"node":"compose","outer":{"node":"mobius",'
        '"a":[-0.014174878794549307,-0.027850230001919846],"child":{"node":"product",'
        '"left":{"node":"identity"},"right":{"node":"mobius","a":[0.11705706359369754,'
        '0.22998899614488647],"child":{"node":"product","left":{"node":"constant",'
        '"c":[0.453596121425578,0.8912073600614351]},"right":{"node":"identity"}}}}},'
        '"inner":{"node":"mobius","a":[-0.5,-0.0],"child":{"node":"identity"}}}}\n',
    ),
]


def test_verify_cases_cover_every_kind():
    assert [argv[0] for argv, _ in VERIFY_CASES] == [kind.value for kind in ExtremalKind]


@pytest.mark.parametrize("argv, expected", VERIFY_CASES, ids=[argv[0] for argv, _ in VERIFY_CASES])
def test_extremal_verify_golden(capsys, argv, expected):
    code = cli_main(["extremal", "verify", "--kind", *argv, "--emit-function"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == expected


# sha256 over the concatenated function_to_json text of the trees below
TREES_SHA256 = "f2d05bfa006ae4468851a1823244799ded45f149a21e1135533bd19057d63865"


def test_serialized_trees():
    """Seed-9 random Schur and Blaschke trees for indices 0-2999, then the
    scalar extremal of every attainment-grid lane in ``KINDS`` order (each
    grid point's rows, lane by lane), serialize to pinned text and read back
    as the same tree."""
    trees = [f(9, index) for index in range(3000) for f in (random_schur_function, random_blaschke_product)]
    for spec in KINDS.values():
        for point in spec.grid():
            n = point.data["z0"].size
            trees += [make_extremal(spec.kind, **lane_params(point, free, i)) for free, _ in point.rows for i in range(n)]
    digest = hashlib.sha256()
    for f in trees:
        text = function_to_json(f)
        assert function_from_json(text) == f
        digest.update(text.encode())
    assert len(trees) == 7753
    assert digest.hexdigest() == TREES_SHA256
