import json

import pytest

from diskvar.extremal import ExtremalKind
from diskvar.harness import (
    MEMBERSHIP_FAMILIES,
    HarnessConfig,
    HarnessReport,
    run_attainment_suite,
    run_membership_suite,
    run_tightness_search,
)
from diskvar.moebius import DomainError


def small(n=200, **kw):
    return HarnessConfig(seed=7, samples=n, **kw)


def test_config_validation():
    with pytest.raises(DomainError):
        HarnessConfig(seed=-1)
    with pytest.raises(DomainError):
        HarnessConfig(samples=-5)
    with pytest.raises(DomainError):
        HarnessConfig(tol=-1e-9)
    with pytest.raises(DomainError):
        HarnessConfig(tol=float("nan"))
    # integer fields are checked, not truncated
    for bad in ({"seed": 1.5}, {"samples": 2.7}, {"samples": float("nan")}, {"seed": True}):
        with pytest.raises(DomainError):
            HarnessConfig(**bad)


def test_membership_each_family_clean():
    for family in MEMBERSHIP_FAMILIES:
        report = run_membership_suite(small(), families=(family,))
        assert report.suite == f"membership:{family}"
        assert report.samples == 200
        assert report.violations == 0
        assert report.worst_margin > 0.0


def test_membership_unknown_family():
    with pytest.raises(DomainError):
        run_membership_suite(small(), families=("second", "cayley"))


def test_membership_zero_samples():
    report = run_membership_suite(small(0))
    assert report.samples == 0
    assert report.violations == 0
    assert report.worst_margin is None
    assert report.to_obj()["worst_margin"] is None


def test_report_json_omits_wall_time():
    report = run_membership_suite(small(10))
    obj = report.to_obj()
    assert "wall_time" not in obj
    assert set(obj) >= {"suite", "samples", "violations", "worst_margin"}
    assert report.wall_time >= 0.0
    json.dumps(obj)  # serializable as-is


def test_membership_deterministic():
    a = run_membership_suite(small(150))
    b = run_membership_suite(small(150))
    assert a.to_obj() == b.to_obj()


def test_membership_parallel_matches_serial():
    serial = run_membership_suite(small(300))
    parallel = run_membership_suite(small(300, parallel=True))
    assert serial.to_obj() == parallel.to_obj()


def test_attainment_suite_clean():
    report = run_attainment_suite(small())
    assert report.suite == "attainment"
    assert report.violations == 0
    assert report.worst_margin > -1e-12
    assert set(report.details["violations_by_kind"]) == set(report.details["kinds"])


def test_attainment_kind_filter():
    kinds = (ExtremalKind.SZASZ, ExtremalKind.SHARP_DEG1)
    report = run_attainment_suite(small(), kinds=kinds)
    assert set(report.details["kinds"]) == {"szasz", "sharp-deg1"}
    assert report.violations == 0
    full = run_attainment_suite(small())
    assert report.samples < full.samples


def test_tightness_search_closes_the_gap():
    for (r, R) in ((0.5, 0.0), (0.5, 0.9), (0.3, 0.5)):
        report = run_tightness_search(small(400), r=r, R=R)
        assert report.suite == "tightness"
        assert report.violations == 0
        details = report.details
        assert details["r"] == r and details["R"] == R
        assert details["best"] <= details["bound"] * (1.0 + 1e-12)
        assert details["gap"] <= 1e-6


def test_tightness_parallel_matches_serial():
    serial = run_tightness_search(small(300), r=0.4, R=0.3)
    parallel = run_tightness_search(small(300, parallel=True), r=0.4, R=0.3)
    assert serial.to_obj() == parallel.to_obj()


def test_tightness_rejects_bad_grid_point():
    with pytest.raises(DomainError):
        run_tightness_search(small(10), r=1.0, R=0.5)
    with pytest.raises(DomainError):
        run_tightness_search(small(10), r=0.5, R=-0.1)


def test_report_is_plain_data():
    report = HarnessReport(suite="x", samples=1, violations=0, worst_margin=0.5, wall_time=0.0)
    assert report.to_obj() == {
        "suite": "x",
        "samples": 1,
        "violations": 0,
        "worst_margin": 0.5,
    }
