import json
import math
import os
import pickle
import signal
import sys
from functools import partial

import numpy as np
import pytest

from diskvar import extremal, harness
from diskvar.bounds import Branch, theorem31_bound
from diskvar.disks import (
    dieudonne_disk,
    max_attaining_alpha,
    mercer_disk,
    second_derivative_disk,
    second_order_dieudonne_disk,
)
from diskvar.extremal import (
    _INTERIOR_ALPHA,
    _UNIMODULAR_GRID,
    KINDS,
    ExtremalKind,
    GridPoint,
    attainment_distance,
    kind_for_branch,
    make_extremal,
)
from diskvar.functions import (
    Constant,
    PrescribedData,
    _schur_tree,
    dieudonne_parametrize,
    schur_parametrize,
    substream,
)
from diskvar.harness import (
    MEMBERSHIP_FAMILIES,
    HarnessConfig,
    HarnessReport,
    run_attainment_suite,
    run_membership_suite,
    run_tightness_search,
)
from diskvar.moebius import Disk, DomainError, Jet2

from oracles import lane_params


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
    with pytest.raises(DomainError, match="tol must be a real number"):
        HarnessConfig(tol="1e-8")
    # a truthy string or number would otherwise run the suites in parallel
    for bad in ("no", 1, 0, None):
        with pytest.raises(DomainError, match=f"^parallel must be True or False, got {bad!r}$"):
            HarnessConfig(parallel=bad)
    assert HarnessConfig(parallel=True).parallel is True


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


def test_a_bare_name_or_a_config_of_another_type_is_refused():
    # a string would be taken for its characters, 's', 'e', ...
    with pytest.raises(DomainError, match="^families must be a sequence of names, got 'second'$"):
        run_membership_suite(small(), "second")
    with pytest.raises(DomainError, match="^kinds must be a sequence of names, got 'szasz'$"):
        run_attainment_suite(small(), "szasz")
    with pytest.raises(DomainError, match="^families must be a sequence of names, got None$"):
        run_membership_suite(small(), None)
    for run in (run_membership_suite, run_attainment_suite, partial(run_tightness_search, r=0.5, R=0.2)):
        with pytest.raises(DomainError, match="^cfg must be a HarnessConfig, got None$"):
            run(None)


def test_a_repeated_or_empty_family_or_kind_list_is_refused():
    # a repeated one would be checked, and counted, twice; none checks nothing
    for families, got in ((("second", "second"), "second,second"), ((), "none")):
        with pytest.raises(DomainError, match=f"^membership needs one or more distinct families, got {got}$"):
            run_membership_suite(small(5), families=families)
    for kinds, got in ((("szasz", ExtremalKind.SZASZ, "sharp-deg1"), "szasz,szasz,sharp-deg1"), ((), "none")):
        with pytest.raises(DomainError, match=f"^attainment needs one or more distinct kinds, got {got}$"):
            run_attainment_suite(small(), kinds=kinds)


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


def _count_forks(monkeypatch):
    """The pids of the children forked from here on, appended in the parent."""
    forked = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(harness.os, "fork", counting_fork)
    return forked


def test_the_pool_starts_no_more_workers_than_chunks_or_cores(monkeypatch):
    forked = _count_forks(monkeypatch)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert harness._workers() == 8
    assert harness._map_chunks(lambda rg: rg, 3, 1) == [(0, 1), (1, 2), (2, 3)]
    started = [len(forked)]
    done = harness._map_chunks(lambda rg: rg, 100, 1)
    started.append(len(forked) - started[0])
    # one range per worker, of 12 or 13 samples
    assert done[-1] == (87, 100) and {hi - lo for lo, hi in done} == {12, 13}
    assert started == [3, 8]
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
    assert harness._workers() == 2


def test_the_workers_follow_the_cpu_affinity_alone(monkeypatch):
    # THREADS is no input: whatever it holds, a call forks one child per
    # usable core, up to 8
    for threads in ("abc", "1", "100000"):
        monkeypatch.setenv("THREADS", threads)
        for cores, workers in ((1, 1), (2, 2), (64, 8)):
            monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid, n=cores: set(range(n)), raising=False)
            assert harness._workers() == workers


def _in_worker(rg):
    return rg, os.getpid()


def _two_workers(monkeypatch):
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _forking(monkeypatch):
    """Two workers, and suites that fork for a child of a single sample."""
    _two_workers(monkeypatch)
    monkeypatch.setattr(harness, "_MEMBERSHIP_PER_CHILD", 1)
    monkeypatch.setattr(harness, "_TIGHTNESS_PER_CHILD", 1)


def test_membership_parallel_matches_serial(monkeypatch):
    _forking(monkeypatch)
    serial = run_membership_suite(small(300))
    parallel = run_membership_suite(small(300, parallel=True))
    assert serial.to_obj() == parallel.to_obj()


@pytest.mark.parametrize(
    "run, per_child",
    [
        (run_membership_suite, "_MEMBERSHIP_PER_CHILD"),
        (partial(run_tightness_search, r=0.4, R=0.3), "_TIGHTNESS_PER_CHILD"),
    ],
)
def test_a_parallel_call_forks_only_where_each_child_gets_the_crossover(monkeypatch, run, per_child):
    # below it the call runs in-process, as a serial one does; at it each of
    # the two workers takes half of the samples in a child
    _two_workers(monkeypatch)
    forked = _count_forks(monkeypatch)
    at = 2 * getattr(harness, per_child)
    for samples, children in ((at - 1, 0), (at, 2)):
        parallel = run(small(samples, parallel=True))
        assert len(forked) == children
        assert parallel.to_obj() == run(small(samples)).to_obj()
        forked.clear()


def test_a_parallel_call_maps_one_range_per_worker_none_in_the_parent(monkeypatch):
    _forking(monkeypatch)
    forked = _count_forks(monkeypatch)
    assert run_membership_suite(small(1000, parallel=True)).details["per_family_samples"] == 1000
    assert len(forked) == 2
    done = harness._map_chunks(_in_worker, 1000, 1)
    assert [rg for rg, _ in done] == [(0, 500), (500, 1000)]
    assert os.getpid() not in {pid for _, pid in done}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raise_domain_error(rg):
    raise DomainError(f"no samples {rg}")


def test_a_childs_exception_is_raised_in_the_parent(monkeypatch):
    _two_workers(monkeypatch)
    assert harness._map_chunks(lambda rg: rg, 4, 1) == [(0, 2), (2, 4)]
    _assert_no_child_left()
    with pytest.raises(DomainError, match=r"^no samples \(2, 4\)$"):
        harness._map_chunks(lambda rg: _raise_domain_error(rg) if rg[0] else rg, 4, 1)
    _assert_no_child_left()


def test_a_child_that_exits_without_a_result_is_named(monkeypatch):
    _two_workers(monkeypatch)
    with pytest.raises(ChildProcessError, match=r"^the child for samples 0\.\.1 ended without a result$"):
        harness._map_chunks(lambda rg: rg if rg[0] else os._exit(3), 4, 1)
    _assert_no_child_left()


def test_a_child_that_ends_mid_result_is_named(monkeypatch):
    # a child killed while it writes leaves part of its pickle in the pipe
    _two_workers(monkeypatch)
    dumps = pickle.dumps
    monkeypatch.setattr(harness.pickle, "dumps", lambda obj, protocol: dumps(obj, protocol)[: len(dumps(obj, protocol)) // 2])
    with pytest.raises(ChildProcessError, match=r"^the child for samples 0\.\.1 ended with a truncated result$"):
        harness._map_chunks(lambda rg: rg, 4, 1)
    _assert_no_child_left()


def _alarm(signum, frame):
    raise TimeoutError("a parallel call is still waiting for its children")


def test_a_failed_range_does_not_wait_on_a_result_larger_than_the_pipe(monkeypatch):
    # the parent stops at range 0; range 1 is still writing 2 MB, far more
    # than a pipe holds, and must not block the call
    _two_workers(monkeypatch)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(10)
    try:
        with pytest.raises(DomainError, match=r"^no samples \(0, 1\)$"):
            harness._map_chunks(lambda rg: b"x" * 2**21 if rg[0] else _raise_domain_error(rg), 2, 1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    _assert_no_child_left()
    assert harness._map_chunks(lambda rg: b"x" * 2**21, 2, 1) == [b"x" * 2**21] * 2
    _assert_no_child_left()


def test_unflushed_parent_output_is_written_once(monkeypatch, capfd):
    # a child leaves with os._exit, so it never flushes the copy of this
    # buffer that it inherited
    _two_workers(monkeypatch)
    out = open(1, "w", closefd=False)
    monkeypatch.setattr(sys, "stdout", out)
    print("before the call", end="")
    assert harness._map_chunks(lambda rg: rg, 2, 1) == [(0, 1), (1, 2)]
    out.flush()
    assert capfd.readouterr().out == "before the call"


def test_parallel_matches_serial_across_unaligned_blocks(monkeypatch):
    # 2500 samples on 2 workers: each range cuts block 1 of 1024 samples
    _forking(monkeypatch)
    for run in (run_membership_suite, partial(run_tightness_search, r=0.4, R=0.3)):
        serial = run(small(2500))
        parallel = run(small(2500, parallel=True))
        assert serial.to_obj() == parallel.to_obj()


# -- the batched membership path ---------------------------------------------


def _scalar_margin(family, p, lane):
    gstar = _schur_tree(p, lane)
    z0 = complex(p["z0"][lane])
    if family == "second":
        data = PrescribedData(z0, complex(p["delta0"][lane]), complex(p["delta1"][lane]))
        return second_derivative_disk(data).margin(schur_parametrize(data, gstar).jet(z0).f2)
    w0 = complex(p["w0"][lane])
    f = dieudonne_parametrize(z0, w0, gstar)
    if family == "dieudonne":
        return dieudonne_disk(z0, w0).margin(f.jet(z0).f1)
    z = complex(p["z"][lane])
    return mercer_disk(z0, w0, z).margin(f.value(z))


@pytest.mark.parametrize("family", MEMBERSHIP_FAMILIES)
def test_batched_margins_match_scalar_trees(family):
    lanes = 200
    p = harness._draw_block(family, substream(7, harness._FAMILY_TAGS[family], 0), slice(0, lanes))
    # the lanes cover every template shape: each degree, each mask state
    assert set(p["degree"].tolist()) == {0, 1, 2, 3, 4}
    assert set(p["scaled"].tolist()) == set(p["wrapped"].tolist()) == {False, True}
    batched = harness._block_margins(family, p)
    assert batched.shape == (lanes,)
    worst = max(abs(batched[lane] - _scalar_margin(family, p, lane)) for lane in range(lanes))
    assert worst <= 1e-12


def test_any_split_gives_the_same_margins():
    cfg = small(2500)
    whole = harness._membership_chunk(cfg, MEMBERSHIP_FAMILIES, (0, 2500))
    assert whole.shape == (3, 2500) and (whole >= 0.0).all()
    # splits that cut blocks (1024 samples) in the middle, and a one-sample chunk
    bounds = (0, 1, 700, 1023, 1024, 1030, 2047, 2500)
    parts = [harness._membership_chunk(cfg, MEMBERSHIP_FAMILIES, rg) for rg in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(parts, axis=1), whole)


def _draw(family, lanes):
    return harness._draw_block(family, substream(7, harness._FAMILY_TAGS[family], 0), lanes)


@pytest.mark.parametrize("family", MEMBERSHIP_FAMILIES)
def test_a_lane_draw_is_the_full_draw_sliced(family):
    whole = _draw(family, slice(0, harness._BLOCK))
    assert whole["zeros"].shape == (4, harness._BLOCK)
    for lo, hi in ((0, 1), (0, 250), (700, 1024), (1023, 1024)):
        part = _draw(family, slice(lo, hi))
        assert part.keys() == whole.keys()
        for name, v in part.items():
            assert v.shape[-1] == hi - lo
            assert np.array_equal(v, whole[name][..., lo:hi]), name


# the uniforms a lane of each family draws: its data, two per point, then
# the 16 of its random Schur tree
WIDTHS = {"second": 22, "dieudonne": 20, "mercer": 22}


@pytest.mark.parametrize("family", MEMBERSHIP_FAMILIES)
def test_a_chunk_draws_the_degrees_and_the_uniforms_up_to_its_last_lane(family):
    # the whole block's degrees, then hi rows of uniforms, however few of
    # them the chunk checks
    for lo, hi in ((0, 1), (0, 250), (700, 1024), (1023, 1024)):
        rng = substream(7, harness._FAMILY_TAGS[family], 0)
        harness._draw_block(family, rng, slice(lo, hi))
        reference = substream(7, harness._FAMILY_TAGS[family], 0)
        reference.integers(0, 5, harness._BLOCK)
        reference.random(hi * WIDTHS[family])
        assert rng.bit_generator.state == reference.bit_generator.state, (lo, hi)


def test_a_family_alone_gives_its_row_of_all_families():
    # each family draws from substreams of its own, over two blocks here
    cfg = small(1100)
    every = harness._membership_chunk(cfg, MEMBERSHIP_FAMILIES, (0, 1100))
    for row, family in enumerate(MEMBERSHIP_FAMILIES):
        alone = harness._membership_chunk(cfg, (family,), (0, 1100))
        assert np.array_equal(alone, every[row : row + 1]), family


class _PlantedRng:
    """Draws from ``rng``, but where its lane-major ``random`` draw reaches
    lane 500, that lane's first uniform, the radius uniform of a Dieudonné
    or Mercer z0, is ``value``.  It records the shape of every ``random``
    draw."""

    def __init__(self, rng, value):
        self.rng, self.value, self.sizes = rng, value, []

    def random(self, size=None):
        u = self.rng.random(size)
        if len(u) > 500:
            u[500, 0] = self.value
        self.sizes.append(size)
        return u

    def integers(self, *args):
        return self.rng.integers(*args)


def _planted_draw(family, lanes, value):
    rng = _PlantedRng(substream(7, harness._FAMILY_TAGS[family], 0), value)
    return harness._draw_block(family, rng, lanes), rng.sizes


@pytest.mark.parametrize("family", ["dieudonne", "mercer"])
def test_a_tiny_z0_radius_uniform_is_floored_in_its_own_lane(family):
    # a radius uniform of 0 at lane 500 is floored at 2e-12, so that z0 stays
    # off 0; no other lane moves, nor any parameter of lane 500 but z0 and
    # w0, a point times z0, in the block or in a chunk that ends at lane 500
    whole, whole_sizes = _planted_draw(family, slice(0, harness._BLOCK), 0.0)
    part, part_sizes = _planted_draw(family, slice(500, 501), 0.0)
    assert whole_sizes == [(harness._BLOCK, WIDTHS[family])] and part_sizes == [(501, WIDTHS[family])]
    assert abs(whole["z0"][500]) == pytest.approx(0.95 * math.sqrt(2e-12), rel=1e-15)
    assert abs(whole["z0"][500]) >= 1e-6
    unplanted = _draw(family, slice(0, harness._BLOCK))
    for name, v in whole.items():
        assert np.array_equal(np.delete(v, 500, axis=-1), np.delete(unplanted[name], 500, axis=-1)), name
        if name not in ("z0", "w0"):
            assert np.array_equal(v[..., 500], unplanted[name][..., 500]), name
        assert np.array_equal(part[name], v[..., 500:501]), name


def test_membership_draws_one_substream_per_family_and_block(monkeypatch):
    keys = []

    def counted(seed, *key):
        keys.append(key)
        return substream(seed, *key)

    monkeypatch.setattr(harness, "substream", counted)
    run_membership_suite(small(250))
    assert sorted(keys) == [(11, 0), (12, 0), (13, 0)]
    keys.clear()
    run_membership_suite(small(1025), families=("mercer",))
    assert keys == [(13, 0), (13, 1)]


def test_nan_margin_is_never_a_pass(monkeypatch):
    report = harness._report("s", np.array([0.5, float("nan"), 0.1]), 1e-8, 0.0, None)
    assert (report.samples, report.violations) == (3, 1)

    # a NaN margin coming out of a block counts as a violation
    real = harness._block_margins

    def poisoned(family, p):
        margins = real(family, p)
        margins[3] = float("nan")
        return margins

    monkeypatch.setattr(harness, "_block_margins", poisoned)
    assert run_membership_suite(small(10), families=("second",)).violations == 1
    monkeypatch.setattr(harness, "_block_margins", real)

    # a NaN in a drawn parameter or in a derivative is refused, not measured
    draw = harness._draw_block

    def nan_lane(family, rng, lanes):
        p = draw(family, rng, lanes)
        p["z0"][3] = complex(float("nan"), 0.0)
        return p

    monkeypatch.setattr(harness, "_draw_block", nan_lane)
    for family in MEMBERSHIP_FAMILIES:
        with pytest.raises(DomainError):
            run_membership_suite(small(10), families=(family,))
    with pytest.raises(DomainError):
        Disk(0j, 1.0).margin(np.array([0.5, complex(float("nan"), 0.0)]))


def test_attainment_suite_clean():
    report = run_attainment_suite(small())
    assert report.suite == "attainment"
    assert report.violations == 0
    assert report.worst_margin > -1e-12
    assert set(report.details["violations_by_kind"]) == set(report.details["kinds"])


def test_violations_by_kind_sum_to_the_violations():
    # at tol 1e-16 rounding alone fails rows of several kinds
    report = run_attainment_suite(HarnessConfig(tol=1e-16))
    by_kind = report.details["violations_by_kind"]
    assert sum(v > 0 for v in by_kind.values()) > 1
    assert sum(by_kind.values()) == report.violations


def test_attainment_kind_filter():
    kinds = (ExtremalKind.SZASZ, ExtremalKind.SHARP_DEG1)
    report = run_attainment_suite(small(), kinds=kinds)
    assert set(report.details["kinds"]) == {"szasz", "sharp-deg1"}
    assert report.violations == 0
    full = run_attainment_suite(small())
    assert report.samples < full.samples


# -- the batched attainment path ---------------------------------------------


def _circle(target):
    """(center, radius) of a Disk target, or (0, bound) of a bound target."""
    return (target.center, target.radius) if isinstance(target, Disk) else (0j, target)


def _lane_circles(target, n):
    """(center, radius) of each of the n lanes of a target."""
    return zip(*(np.broadcast_to(v, n).tolist() for v in _circle(target)))


def _scalar_target(spec, data, alpha):
    """The target of a row at scalar data, from the scalar closed form: the
    kind's own, or the circle that a second-boundary grid's interior alpha,
    or its aligned alpha (one per lane), puts g''(z0) on."""
    target = spec.target(**data)
    if alpha is _INTERIOR_ALPHA:
        return Disk(target.center, abs(alpha) * target.radius)
    if np.ndim(alpha):
        return Disk(0j, abs(target.center) + target.radius)
    return target


def _scalar_w1(z0, w0, delta1):
    return Disk(second_order_dieudonne_disk(z0, w0, delta1).w1, 0.0)


# the disk each pinned component lands on, from the scalar data
_SCALAR_PINS = {
    ExtremalKind.DIEUDONNE2_DEGENERATE: _scalar_w1,
    ExtremalKind.DIEUDONNE2_BOUNDARY: _scalar_w1,
    ExtremalKind.SHARP_DEG1: lambda z0, delta0: Disk(delta0, 0.0),
    ExtremalKind.SHARP_DEG2: lambda z0, delta0: Disk(0j, abs(delta0)),
    ExtremalKind.SZASZ: lambda z0: Disk(0j, abs(z0) * abs(z0) / 8.0),
}


def _scalar_checks(spec):
    """(margin, lane target, scalar target) of every check of one kind's
    grid, in the order of ``harness._attainment_margins``: each grid point's
    probes, row by row and lane by lane, then each row's pins.  Each check is
    rebuilt from the scalars of its lane: the jet of a scalar extremal, and a
    target from the scalar closed form; the lane target is the grid's."""
    probes, pins = [], []
    for point in spec.grid():
        n = point.data["z0"].size
        for free, pinned in point.rows:
            lanes = [lane_params(point, free, i) for i in range(n)]
            jets = [make_extremal(spec.kind, **given).jet(given["z0"]) for given in lanes]
            data = [{name: given[name] for name in point.data} for given in lanes]
            for jet, values, lane in zip(jets, data, _lane_circles(point.target, n)):
                target = _scalar_target(spec, values, free.get("alpha"))
                probes.append((-attainment_distance(target, getattr(jet, spec.probe)), lane, target))
            for part, disk in pinned:
                for jet, values, lane in zip(jets, data, _lane_circles(disk, n)):
                    target = _SCALAR_PINS[spec.kind](**values)
                    pins.append((-target.boundary_distance(getattr(jet, part)), lane, target))
    return probes + pins


@pytest.mark.parametrize("kind", list(KINDS))
def test_batched_attainment_matches_scalar_rows(kind):
    spec = KINDS[kind]
    margins = harness._attainment_margins(spec)
    checks = _scalar_checks(spec)
    assert margins.shape == (len(checks),)
    for margin, (expected, (center, radius), target) in zip(margins, checks):
        # a bound target takes |z0| and |delta0| from numpy, which can round
        # them apart from CPython by one bit; 1/(1 - r^2)^2 amplifies that by
        # up to 4r/(1 - r^2) ~ 19 on these grids
        near = 1e-15 if isinstance(target, Disk) else 1e-14
        target_center, target_radius = _circle(target)
        scale = abs(target_center) + target_radius
        # the lane's target is the scalar closed form at the same data
        assert abs(center - target_center) + abs(radius - target_radius) <= near * (1.0 + scale)
        assert abs(margin - expected) <= 1e-13 * (1.0 + scale)
        for tol in (1e-8, 1e-9):
            assert (margin >= -tol) == (expected >= -tol)


_CLOSED_FORMS = (
    "schwarz_pick_disk",
    "dieudonne_disk",
    "second_derivative_disk",
    "second_order_dieudonne_disk",
    "max_attaining_alpha",
    "branch_value",
)


def _closed_form_calls(monkeypatch, kind):
    """The closed forms one kind's attainment check calls, in order, each
    with whether every numeric argument was a lane array."""
    calls = []

    def counted(name, form):
        def call(*args):
            numeric = [arg for arg in args if not isinstance(arg, (PrescribedData, Branch))]
            calls.append((name, all(np.ndim(arg) == 1 for arg in numeric)))
            return form(*args)

        return call

    for name in _CLOSED_FORMS:
        monkeypatch.setattr(extremal, name, counted(name, getattr(extremal, name)))
    harness._attainment_margins(KINDS[kind])
    return calls


@pytest.mark.parametrize("kind", [kind for kind, spec in KINDS.items() if not spec.branches])
def test_each_disk_kind_calls_its_closed_form_once(monkeypatch, kind):
    # one lane-wise call per closed form, every argument a lane array
    expected = {
        ExtremalKind.SCHWARZ_PICK: ["schwarz_pick_disk"],
        ExtremalKind.DIEUDONNE: ["dieudonne_disk"],
        ExtremalKind.SECOND_DEGENERATE: ["second_derivative_disk"],
        ExtremalKind.SECOND_BOUNDARY: ["second_derivative_disk", "max_attaining_alpha"],
        ExtremalKind.DIEUDONNE2_DEGENERATE: ["second_order_dieudonne_disk"],
        ExtremalKind.DIEUDONNE2_BOUNDARY: ["second_order_dieudonne_disk"],
    }[kind]
    assert _closed_form_calls(monkeypatch, kind) == [(name, True) for name in expected]


@pytest.mark.parametrize("kind", [kind for kind, spec in KINDS.items() if spec.branches])
def test_each_sharp_kind_calls_its_bound_once(monkeypatch, kind):
    # one lane-wise bound over every row, though sharp-deg2 splits its grid
    # into two lane points
    assert _closed_form_calls(monkeypatch, kind) == [("branch_value", True)]
    assert len(list(KINDS[kind].grid())) == (2 if kind is ExtremalKind.SHARP_DEG2 else 1)


def _is_interior(free):
    # by identity: a grid's aligned alpha is an array, which == compares lane by lane
    return free.get("alpha") is _INTERIOR_ALPHA


def test_an_interior_alpha_lands_on_its_circle():
    # g''(z0) = c2 + rho2 alpha: |alpha| < 1 fixes one interior point, on the
    # circle of radius |alpha| rho2 that the grid targets
    spec = KINDS[ExtremalKind.SECOND_BOUNDARY]
    rows = [(point, free) for point in spec.grid() for free, _ in point.rows if _is_interior(free)]
    assert sum(point.data["z0"].size for point, _ in rows) == 48
    for point, free in rows:
        disk = second_derivative_disk(PrescribedData(**point.data))
        assert np.array_equal(point.target.center, disk.center)
        assert np.array_equal(point.target.radius, abs(_INTERIOR_ALPHA) * disk.radius)
        f2 = make_extremal(spec.kind, **point.data, **free).jet(point.data["z0"]).f2
        tol = 1e-13 * (1.0 + disk.radius)
        assert np.all(abs(f2 - (disk.center + disk.radius * _INTERIOR_ALPHA)) <= tol)
        assert np.all(point.target.boundary_distance(f2) <= tol)


def _take(point, lanes, rows):
    """The grid point holding ``lanes`` of ``point`` and the given rows."""
    n = point.data["z0"].size

    def cut(v):
        return np.broadcast_to(v, n)[lanes]

    def disk(d):
        return Disk(cut(d.center), cut(d.radius))

    rows = tuple(({name: cut(v) for name, v in free.items()}, tuple((p, disk(d)) for p, d in ps)) for free, ps in rows)
    target = disk(point.target) if isinstance(point.target, Disk) else cut(point.target)
    return GridPoint({name: v[lanes] for name, v in point.data.items()}, target, rows)


@pytest.mark.parametrize(
    "kind, interior", [(kind, False) for kind in KINDS] + [(ExtremalKind.SECOND_BOUNDARY, True)]
)
def test_a_target_moved_off_one_lane_is_one_violation(monkeypatch, kind, interior):
    spec = KINDS[kind]
    points = list(spec.grid())
    at = next(i for i, point in enumerate(points) if _is_interior(point.rows[0][0]) == interior)
    point = points[at]
    first, *others = point.rows
    # lane 0 of the first row, alone in its grid point
    one = _take(point, slice(0, 1), (first,))
    given = lane_params(one, one.rows[0][0], 0)
    probe = getattr(make_extremal(kind, **given).jet(given["z0"]), spec.probe)
    if isinstance(one.target, Disk):
        center, radius = complex(one.target.center[0]), float(one.target.radius[0])
        # move the center away from the probe until the probe lies 1e-6 outside
        # the target circle: a shift of ~1e-6
        away = center - probe
        shift = (radius + 1e-6 - abs(away)) * (away / abs(away) if away else 1.0)
        moved = Disk(one.target.center + shift, one.target.radius)
    else:
        # raise the bound until |probe| lies 1e-6 below it, relative
        moved = np.array([abs(probe) * (1.0 + 1e-6)])
    rest = [_take(point, slice(0, 1), others)] if others else []
    points[at : at + 1] = [
        one._replace(target=moved),
        *rest,
        _take(point, slice(1, None), point.rows),
    ]
    monkeypatch.setitem(KINDS, kind, spec._replace(grid=lambda: iter(points)))
    report = run_attainment_suite(HarnessConfig())
    assert report.samples == 1969
    assert report.violations == 1
    assert report.details["violations_by_kind"] == {k.value: int(k is kind) for k in ExtremalKind}
    # 1e-6 from a disk's boundary, and 1e-6 relative to a bound
    assert report.worst_margin == pytest.approx(-1e-6, rel=1e-3)


def test_nan_is_a_violation_and_never_the_worst():
    nan = float("nan")

    def tally(margins):
        report = harness._report("s", np.array(margins), 1e-8, 0.0, None)
        return report.samples, report.violations, report.worst_margin

    assert tally([nan, 0.5]) == tally([0.5, nan]) == (2, 1, 0.5)
    assert tally([nan, nan]) == (2, 2, None)
    assert tally([nan, -0.5]) == (2, 2, -0.5)
    assert tally([]) == (0, 0, None)


def test_a_nan_lane_leaves_the_report_valid_json(monkeypatch):
    block_margins = harness._block_margins
    attainment_margins = harness._attainment_margins

    def poisoned_block(family, p):
        margins = block_margins(family, p)
        margins[3] = float("nan")
        return margins

    def poisoned_grid(spec):
        margins = attainment_margins(spec)
        margins[3] = float("nan")
        return margins

    monkeypatch.setattr(harness, "_block_margins", poisoned_block)
    monkeypatch.setattr(harness, "_attainment_margins", poisoned_grid)
    membership = run_membership_suite(small(10), families=("second",))
    attainment = run_attainment_suite(small())
    assert membership.violations == 1
    assert attainment.violations == len(KINDS)
    for report in (membership, attainment):
        assert math.isfinite(report.worst_margin)
        json.dumps(report.to_obj(), allow_nan=False)


def test_tightness_search_closes_the_gap():
    for (r, R) in ((0.5, 0.0), (0.5, 0.9), (0.3, 0.5)):
        report = run_tightness_search(small(400), r=r, R=R)
        assert report.suite == "tightness"
        assert report.violations == 0
        details = report.details
        assert details["r"] == r and details["R"] == R
        assert details["best"] <= details["bound"] * (1.0 + 1e-12)
        assert details["gap"] <= 1e-6


def test_tightness_parallel_matches_serial(monkeypatch):
    _forking(monkeypatch)
    serial = run_tightness_search(small(300), r=0.4, R=0.3)
    parallel = run_tightness_search(small(300, parallel=True), r=0.4, R=0.3)
    assert serial.to_obj() == parallel.to_obj()


def test_tightness_tolerance_scales_with_the_bound():
    # near the boundary the bound is 2.0e5 and rounding alone leaves samples
    # 1.9e-7 above it: an absolute 1e-8 slack counted one false violation
    report = run_tightness_search(HarnessConfig(seed=42, samples=2000), 0.99999, 0.99999)
    assert report.details["bound"] > 1e5
    assert -1e-6 < report.worst_margin < 0.0
    assert report.violations == 0


# -- the batched tightness path ----------------------------------------------


def test_batched_tightness_matches_scalar_trees(monkeypatch):
    r, R = 0.3, 0.5
    trees = []
    parametrize = harness.schur_parametrize

    def recorded_tree(data, gstar):
        trees.append((data.delta1, gstar.c))
        return parametrize(data, gstar)

    monkeypatch.setattr(harness, "schur_parametrize", recorded_tree)
    second = harness._tightness_chunk(small(300), r, R, (0, 300))
    [(d1, alpha)] = trees
    # one lane per sample at a random alpha, then one per sample at its aligned alpha
    assert second.shape == d1.shape == alpha.shape == (600,)
    for lane in range(600):
        data = PrescribedData(r, R, complex(d1[lane]))
        if lane >= 300:
            assert d1[lane] == d1[lane - 300]
            assert abs(alpha[lane] - max_attaining_alpha(data)) <= 1e-15
        scalar = abs(schur_parametrize(data, Constant(complex(alpha[lane]))).jet(complex(r)).f2)
        assert abs(second[lane] - scalar) <= 1e-12 * scalar


_CANDIDATE_GRID = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99999)


@pytest.mark.parametrize("r", _CANDIDATE_GRID)
def test_batched_candidates_match_scalar_trees(r):
    # samples=0 leaves only the deterministic candidates, which the reference
    # builds as one scalar tree each
    for R in _CANDIDATE_GRID:
        report = run_tightness_search(small(0), r=r, R=R)
        result = theorem31_bound(r, R)
        bound, branch = result.value, result.branch
        z0, d0 = complex(r), complex(R)
        trees = [make_extremal(kind_for_branch(branch), z0=z0, delta0=d0)]
        if r > 0.0:
            trees += [make_extremal("second-degenerate", z0=z0, delta0=d0, delta1=d1) for d1 in _UNIMODULAR_GRID]
        second = [abs(g.jet(z0).f2) for g in trees]
        tol = small(0).tol * (1.0 + bound)
        details = report.details
        assert details["branch"] == branch.value
        assert report.samples == len(second)
        assert report.violations == sum(not bound - v >= -tol for v in second)
        assert abs(details["best"] - max(second)) <= 1e-13 * (1.0 + bound)
        assert abs(details["gap"] - (bound - max(second))) <= 1e-13 * (1.0 + bound)


def test_tightness_any_split_gives_the_same_values():
    cfg = small(2500)
    bound = theorem31_bound(0.4, 0.3).value
    whole = harness._tightness_chunk(cfg, 0.4, 0.3, (0, 2500))
    assert whole.shape == (2 * 2500,) and harness._violations(bound - whole, cfg.tol * (1.0 + bound)) == 0
    # splits that cut blocks (1024 samples) in the middle, and a one-sample chunk;
    # each block lists its aligned lanes after its random ones, so only the
    # order differs
    bounds = (0, 1, 700, 1030, 2047, 2500)
    parts = [harness._tightness_chunk(cfg, 0.4, 0.3, rg) for rg in zip(bounds, bounds[1:])]
    assert np.array_equal(np.sort(np.concatenate(parts)), np.sort(whole))


def test_tightness_draws_one_substream_per_block(monkeypatch):
    keys = []

    def counted(seed, *key):
        keys.append(key)
        return substream(seed, *key)

    monkeypatch.setattr(harness, "substream", counted)
    run_tightness_search(small(500), r=0.5, R=0.25)
    assert keys == [(31, 0)]
    keys.clear()
    run_tightness_search(small(1025), r=0.5, R=0.25)
    assert keys == [(31, 0), (31, 1)]


def test_tightness_nan_lane_is_a_violation(monkeypatch):
    parametrize = harness.schur_parametrize

    class Poisoned:
        def __init__(self, g):
            self.g = g

        def jet(self, z0):
            jet = self.g.jet(z0)
            f2 = jet.f2.copy()
            f2[3] = complex(float("nan"), 0.0)
            return Jet2(jet.f0, jet.f1, f2)

    monkeypatch.setattr(harness, "schur_parametrize", lambda data, gstar: Poisoned(parametrize(data, gstar)))
    report = run_tightness_search(small(10), r=0.5, R=0.25)
    assert report.violations == 1
    json.dumps(report.to_obj(), allow_nan=False)


def test_tightness_checks_no_aligned_alpha_where_the_center_vanishes():
    # at z0 = 0 and delta0 = 0 every center is 0: one random alpha per sample,
    # plus the branch extremal
    report = run_tightness_search(small(100), r=0.0, R=0.0)
    assert report.samples == 101
    assert report.violations == 0


class _TopOfRange:
    """An RNG whose every draw is the largest double below 1."""

    def random(self, size=None):
        top = 1.0 - 2.0**-53
        return top if size is None else np.full(size, top)


@pytest.mark.parametrize("samples", [2, 3, 500, 10**4])
def test_stratified_delta1_stays_inside_the_disk(monkeypatch, samples):
    # (index + u) / samples rounds to exactly 1 for the last index, which
    # schur_parametrize refuses
    monkeypatch.setattr(harness, "substream", lambda seed, *key: _TopOfRange())
    report = run_tightness_search(small(samples), r=0.5, R=0.25)
    assert report.violations == 0
    assert report.samples == 2 * samples + 9


def test_delta1_cap_survives_the_phase_rounding():
    d1 = harness._DELTA1_CAP * np.exp(2j * np.pi * np.linspace(0.0, 1.0, 10**5))
    assert abs(d1).max() < 1.0


def test_tightness_rejects_bad_grid_point():
    with pytest.raises(DomainError):
        run_tightness_search(small(10), r=1.0, R=0.5)
    with pytest.raises(DomainError):
        run_tightness_search(small(10), r=0.5, R=-0.1)


def test_tightness_refuses_a_batch_r():
    with pytest.raises(DomainError, match="takes a scalar r, not a batch"):
        run_tightness_search(small(10), np.array([0.1]), 0.1)


def test_report_is_plain_data():
    report = HarnessReport(suite="x", samples=1, violations=0, worst_margin=0.5, wall_time=0.0)
    assert report.to_obj() == {
        "suite": "x",
        "samples": 1,
        "violations": 0,
        "worst_margin": 0.5,
    }
