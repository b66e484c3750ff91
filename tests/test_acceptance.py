"""Acceptance gate: nine numbered go/no-go checks at fixed tolerances.

One test per criterion, in file order, so `pytest -v` prints one pass/fail
line for each. Every test also prints a PASS/FAIL line with the measured
quantities, visible on failure without rerunning. The timing check in
criterion 9 runs last and therefore sees the cost of everything above it.
"""

import json
import os
import time

from diskvar.bounds import (
    Branch,
    branch_value,
    ruscheweyh_bound,
    szasz_bound,
    theorem31_bound,
)
from diskvar.disks import dieudonne_disk, peschl_pair
from diskvar.extremal import ExtremalKind
from diskvar.functions import (
    disk_sample,
    eval_jet,
    random_blaschke_product,
    random_schur_function,
    substream,
)
from diskvar import harness
from diskvar.harness import (
    HarnessConfig,
    run_attainment_suite,
    run_membership_suite,
    run_tightness_search,
)

from oracles import fd_jet, rel_err

SEED = 42


def _line(n, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_second_derivative_membership():
    cfg = HarnessConfig(seed=SEED, samples=10000, tol=1e-8)
    report = run_membership_suite(cfg, families=("second",))
    ok = report.violations == 0 and report.wall_time < 10.0
    _line(
        1,
        ok,
        f"{report.samples} second-derivative samples, {report.violations} violations, "
        f"worst margin {report.worst_margin:.3e}, {report.wall_time:.2f} s",
    )


def test_criterion_2_dieudonne_membership():
    cfg = HarnessConfig(seed=SEED, samples=10000, tol=1e-8)
    report = run_membership_suite(cfg, families=("dieudonne",))
    _line(
        2,
        report.violations == 0,
        f"{report.samples} first-derivative samples, {report.violations} violations, "
        f"worst margin {report.worst_margin:.3e}",
    )


def test_criterion_3_yamashita_inequality_and_equality():
    worst_excess = float("-inf")
    for index in range(10000):
        g = random_schur_function(SEED, index)
        z0 = disk_sample(substream(SEED, 22, index), 0.9)
        pair = peschl_pair(g, z0)
        worst_excess = max(worst_excess, abs(pair.d2) - 2.0 * (1.0 - abs(pair.d1) ** 2))

    worst_gap = 0.0
    for index in range(1000):
        degree = 1 + index % 2
        b = random_blaschke_product(SEED, index, degree=degree)
        z0 = disk_sample(substream(SEED, 23, index), 0.9)
        pair = peschl_pair(b, z0)
        worst_gap = max(worst_gap, abs(abs(pair.d2) - 2.0 * (1.0 - abs(pair.d1) ** 2)))

    ok = worst_excess <= 1e-9 and worst_gap <= 1e-8
    _line(
        3,
        ok,
        f"worst excess {worst_excess:.3e} over 10000 trees (tol 1e-9), "
        f"worst equality gap {worst_gap:.3e} over 1000 degree<=2 products (tol 1e-8)",
    )


def test_criterion_4_attainment_grids():
    cfg_disk = HarnessConfig(seed=SEED, tol=1e-9)
    disk_kinds = (ExtremalKind.SECOND_BOUNDARY, ExtremalKind.SECOND_DEGENERATE)
    boundary = run_attainment_suite(cfg_disk, kinds=disk_kinds)

    cfg_bound = HarnessConfig(seed=SEED, tol=1e-8)
    sharp_kinds = (ExtremalKind.SHARP_DEG1, ExtremalKind.SHARP_DEG2, ExtremalKind.SZASZ)
    sharp = run_attainment_suite(cfg_bound, kinds=sharp_kinds)

    ok = boundary.violations == 0 and sharp.violations == 0
    _line(
        4,
        ok,
        f"second-derivative boundary rows {boundary.samples} at 1e-9 "
        f"({boundary.violations} violations), sharp-bound rows {sharp.samples} "
        f"at 1e-8 ({sharp.violations} violations)",
    )


def test_criterion_5_spot_values():
    checks = (
        ("theorem31_bound(0.5, 0.25)", theorem31_bound(0.5, 0.25).value, 3.6111111),
        ("theorem31_bound(0.5, 0.9)", theorem31_bound(0.5, 0.9).value, 0.9457778),
        ("szasz_bound(0.5)", szasz_bound(0.5).value, 3.78125),
        ("ruscheweyh_bound(2, 0.5, 0)", ruscheweyh_bound(2, 0.5, 0.0).value, 5.3333333),
        # f(z) = z [z, 0.5] has f(0.5) = 0.25 and f'(0.5) = 2/3, outside any
        # radius-0.4 disk around 0.5: the correct radius here is 0.5.
        ("dieudonne center", dieudonne_disk(0.5, 0.25).center, 0.5),
        ("dieudonne radius", dieudonne_disk(0.5, 0.25).radius, 0.5),
    )
    failures = [name for name, got, want in checks if abs(got - want) > 1e-7]
    _line(
        5,
        not failures,
        "all six closed-form spot values within 1e-7"
        if not failures
        else f"out of tolerance: {failures}",
    )


def test_criterion_6_domination_and_seam():
    n = 100
    worst_rw = float("-inf")
    worst_sz = float("-inf")
    for i in range(n):
        r = 0.98 * i / (n - 1)
        sz = szasz_bound(r).value
        for j in range(n):
            R = 0.99 * j / (n - 1)
            t31 = theorem31_bound(r, R).value
            # equality at r = 0: allow one ulp of slack on the ruscheweyh side
            worst_rw = max(worst_rw, t31 - ruscheweyh_bound(2, r, R).value - 1e-12)
            worst_sz = max(worst_sz, t31 - sz - 1e-9)

    worst_seam = 0.0
    for R in (0.55, 0.6, 0.75, 0.9, 0.99):
        r = 2.0 * (1.0 - R)
        gap = abs(branch_value(Branch.DEG1, r, R) - branch_value(Branch.DEG2, r, R))
        worst_seam = max(worst_seam, gap)

    ok = worst_rw <= 0.0 and worst_sz <= 0.0 and worst_seam <= 1e-12
    _line(
        6,
        ok,
        f"100x100 grid: max(thm31 - ruscheweyh2) slack {worst_rw:.3e}, "
        f"max(thm31 - szasz) slack {worst_sz:.3e}, seam gap {worst_seam:.3e}",
    )


def test_criterion_7_jets_match_finite_differences():
    worst = 0.0
    for index in range(500):
        f = random_schur_function(SEED, index)
        z = disk_sample(substream(SEED, 24, index), 0.9)
        jet = eval_jet(f, z)
        f0, f1, f2 = fd_jet(f, z)
        worst = max(worst, rel_err(jet.f1, f1), rel_err(jet.f2, f2))
    _line(7, worst <= 1e-6, f"500 pairs, worst f1/f2 relative error {worst:.3e} (tol 1e-6)")


def test_criterion_8_tightness_search():
    start = time.perf_counter()
    gaps = {}
    for (r, R) in ((0.5, 0.0), (0.5, 0.9), (0.3, 0.5)):
        cfg = HarnessConfig(seed=SEED, samples=10000)
        report = run_tightness_search(cfg, r=r, R=R)
        details = report.details
        assert report.violations == 0, f"sampled |g''| above bound + 1e-8 at {(r, R)}"
        gaps[(r, R)] = details["gap"]
    elapsed = time.perf_counter() - start
    ok = all(gap <= 1e-6 for gap in gaps.values()) and elapsed < 30.0
    _line(
        8,
        ok,
        f"gaps {', '.join(f'{pt}: {gap:.2e}' for pt, gap in gaps.items())}, "
        f"{elapsed:.2f} s (budget 30 s)",
    )


def test_criterion_9_runtime_and_parallel_agreement():
    # membership at twice its crossover, so that a parallel call forks a
    # child for each of two workers; the other suites fork at no size used here
    members = 2 * harness._MEMBERSHIP_PER_CHILD
    forked = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    reports = []
    os.fork = counting_fork
    try:
        for parallel in (False, True):
            cfg = HarnessConfig(seed=SEED, samples=10000, parallel=parallel)
            membership = HarnessConfig(seed=SEED, samples=members, parallel=parallel)
            reports.append(
                {
                    "membership": run_membership_suite(membership).to_obj(),
                    "attainment": run_attainment_suite(cfg).to_obj(),
                    "tightness": run_tightness_search(cfg, r=0.5, R=0.25).to_obj(),
                }
            )
    finally:
        os.fork = fork
    identical = json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)
    # one child per worker, and none where a single worker runs the call in-process
    children = 2 if harness._workers() >= 2 else 0

    # file order puts this test last, so process_time covers criteria 1-8 too
    cpu = time.process_time()
    ok = identical and len(forked) == children and cpu < 60.0
    _line(
        9,
        ok,
        f"parallel reports {'identical' if identical else 'DIFFER'}, "
        f"{len(forked)} children forked for {members} membership samples per family (expected {children}), "
        f"single-threaded CPU time {cpu:.1f} s (budget 60 s)",
    )


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            fn()
