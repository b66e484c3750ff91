"""Randomized verification suites.

Three suites back the closed-form results numerically:

* membership: random interpolation data and random Schur-class parameters are
  pushed through the parametrizations; the predicted derivative must land in
  the predicted disk, every time;
* attainment: extremal functions are swept over parameter grids and must land
  on the predicted disk boundaries / bound values;
* tightness: coarse maximisation of |g''(z0)| over sampled parameters must
  approach the sharp bound from below and never cross it.

Sampling is deterministic: every sample draws from an independent RNG
substream keyed by (seed, suite tag, index), so serial and parallel runs
aggregate to identical reports (violation counts sum, margins reduce by min).
"""

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

from .bounds import theorem31_bound
from .disks import dieudonne_disk, max_attaining_alpha, mercer_disk, second_derivative_disk
from .extremal import (
    _UNIMODULAR_GRID,
    ExtremalKind,
    attainment_distance,
    kind_for_branch,
    kind_spec,
    make_extremal,
)
from .functions import (
    Constant,
    PrescribedData,
    _schur_tree,
    dieudonne_parametrize,
    disk_sample,
    schur_parametrize,
    substream,
)
from .moebius import DomainError, require_int

# not called here since the kind table computes the attainment targets; kept
# bound because bench/tracing.py wraps these names in this module
from .disks import schwarz_pick_disk, second_order_dieudonne_disk  # noqa: F401
from .extremal import branch_bound_for  # noqa: F401

__all__ = [
    "HarnessConfig",
    "HarnessReport",
    "run_membership_suite",
    "run_attainment_suite",
    "run_tightness_search",
    "MEMBERSHIP_FAMILIES",
]

MEMBERSHIP_FAMILIES = ("second", "dieudonne", "mercer")
_FAMILY_TAGS = {"second": 11, "dieudonne": 12, "mercer": 13}
_TIGHTNESS_TAG = 31


@dataclass(frozen=True)
class HarnessConfig:
    """``tol`` is the slack of every check: disk inclusion and the bound in
    membership and tightness, the distance to the target in attainment."""

    seed: int = 42
    samples: int = 10000
    tol: float = 1e-8
    parallel: bool = False

    def __post_init__(self):
        object.__setattr__(self, "seed", require_int(self.seed, "seed"))
        object.__setattr__(self, "samples", require_int(self.samples, "samples"))
        if not self.tol > 0.0:
            raise DomainError("tol must be positive")


@dataclass(frozen=True)
class HarnessReport:
    """Outcome of one suite.

    worst_margin is the most negative margin seen (None when nothing ran);
    positive margins mean comfortable passes.  wall_time is informational and
    is deliberately left out of the JSON form so reports for a fixed (seed,
    config) are byte-identical across runs.
    """

    suite: str
    samples: int
    violations: int
    worst_margin: float | None
    wall_time: float
    details: dict | None = None

    def to_obj(self):
        doc = {
            "suite": self.suite,
            "samples": self.samples,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
        }
        if self.details is not None:
            doc["details"] = self.details
        return doc


def _workers():
    env = os.environ.get("THREADS", "").strip()
    if not env:
        return min(os.cpu_count() or 1, 8)
    try:
        return max(1, int(env))
    except ValueError:
        raise DomainError(f"THREADS must be an integer, got {env!r}") from None


def _chunk_ranges(n, pieces):
    size = max(1, math.ceil(n / pieces))
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _map_chunks(fn, n, parallel):
    """Apply fn over index ranges; aggregation downstream must be
    order-independent (sum / min), which keeps parallel == serial."""
    if n == 0:
        return []
    if not parallel:
        return [fn((0, n))]
    ranges = _chunk_ranges(n, _workers() * 4)
    if len(ranges) == 1:
        return [fn(ranges[0])]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return [fn(rg) for rg in ranges]
    with ProcessPoolExecutor(max_workers=_workers(), mp_context=ctx) as pool:
        return list(pool.map(fn, ranges))


def _tally(part, margin, tol, value=None):
    """Add one sample to a chunk tally (count, violations, worst margin, best value)."""
    n, violations, worst, best = part
    return (
        n + 1,
        violations + (margin < -tol),
        margin if worst is None or margin < worst else worst,
        value if best is None or (value is not None and value > best) else best,
    )


def _merge(parts):
    """Combine chunk tallies: counts sum, worst margins reduce by min and best
    values by max, so the result does not depend on how the indices were split."""
    worsts = [p[2] for p in parts if p[2] is not None]
    bests = [p[3] for p in parts if p[3] is not None]
    return sum(p[0] for p in parts), sum(p[1] for p in parts), min(worsts, default=None), max(bests, default=None)


def _nonzero_disk_sample(rng, cap):
    z = disk_sample(rng, cap)
    while abs(z) <= 1e-6:
        z = disk_sample(rng, cap)
    return z


def _membership_margin(cfg, family, index):
    """Inclusion margin of one random sample in its predicted disk."""
    rng = substream(cfg.seed, _FAMILY_TAGS[family], index)
    if family == "second":
        z0 = disk_sample(rng, 0.95)
        data = PrescribedData(z0, disk_sample(rng, 0.95), disk_sample(rng, 0.98))
        gstar = _schur_tree(rng)
        g = schur_parametrize(data, gstar)
        return second_derivative_disk(data).margin(g.jet(z0).f2)
    if family == "dieudonne":
        z0 = _nonzero_disk_sample(rng, 0.95)
        w0 = disk_sample(rng, 0.95) * z0
        fstar = _schur_tree(rng)
        f = dieudonne_parametrize(z0, w0, fstar)
        return dieudonne_disk(z0, w0).margin(f.jet(z0).f1)
    if family == "mercer":
        z0 = _nonzero_disk_sample(rng, 0.95)
        w0 = disk_sample(rng, 0.95) * z0
        z = disk_sample(rng, 0.95)
        fstar = _schur_tree(rng)
        f = dieudonne_parametrize(z0, w0, fstar)
        return mercer_disk(z0, w0, z).margin(f.value(z))
    raise DomainError(f"unknown membership family {family!r}")


def _membership_chunk(cfg, families, rg):
    lo, hi = rg
    part = (0, 0, None, None)
    for index in range(lo, hi):
        for family in families:
            part = _tally(part, _membership_margin(cfg, family, index), cfg.tol)
    return part


def run_membership_suite(cfg, families=MEMBERSHIP_FAMILIES):
    """Check cfg.samples random samples per family against their disks."""
    families = tuple(families)
    for family in families:
        if family not in _FAMILY_TAGS:
            raise DomainError(f"unknown membership family {family!r}")
    start = time.perf_counter()
    parts = _map_chunks(partial(_membership_chunk, cfg, families), cfg.samples, cfg.parallel)
    samples, violations, worst, _ = _merge(parts)
    return HarnessReport(
        suite="membership:" + "+".join(families),
        samples=samples,
        violations=violations,
        worst_margin=worst,
        wall_time=time.perf_counter() - start,
        details={"families": list(families), "per_family_samples": cfg.samples},
    )


# -- attainment ---------------------------------------------------------------


def _attainment_margins(spec, tol):
    """Yield (margin, ok) for every row of one kind's attainment grid.

    A distance d gives margin -d and passes when d <= tol; an ``inside`` row
    gives the disk inclusion margin and passes when that is positive.
    """
    for point in spec.grid():
        z0 = point.data["z0"]
        for free, pins in point.rows:
            jet = make_extremal(spec.kind, **point.data, **free).jet(z0)
            probe = getattr(jet, spec.probe)
            if point.inside:
                margin = point.target.margin(probe)
                yield margin, margin > 0.0
            else:
                distance = attainment_distance(point.target, probe)
                yield -distance, distance <= tol
            for pin in pins:
                distance = pin(jet)
                yield -distance, distance <= tol


def run_attainment_suite(cfg, kinds=None):
    """Sweep extremal kinds over deterministic grids.

    Rows are deterministic (no sampling), so cfg.seed and cfg.parallel do not
    change the report.
    """
    specs = [kind_spec(kind) for kind in (ExtremalKind if kinds is None else kinds)]
    start = time.perf_counter()
    n = 0
    violations = 0
    worst = None
    per_kind = {}
    for spec in specs:
        kind_violations = 0
        for margin, ok in _attainment_margins(spec, cfg.tol):
            n += 1
            if not ok:
                kind_violations += 1
            if worst is None or margin < worst:
                worst = margin
        violations += kind_violations
        per_kind[spec.kind.value] = kind_violations
    return HarnessReport(
        suite="attainment",
        samples=n,
        violations=violations,
        worst_margin=worst,
        wall_time=time.perf_counter() - start,
        details={"kinds": [spec.kind.value for spec in specs], "violations_by_kind": per_kind},
    )


# -- tightness ----------------------------------------------------------------


def _tightness_chunk(cfg, r, R, bound, rg):
    lo, hi = rg
    z0 = complex(r)
    d0 = complex(R)
    part = (0, 0, None, None)
    total = max(1, cfg.samples)
    for index in range(lo, hi):
        rng = substream(cfg.seed, _TIGHTNESS_TAG, index)
        # stratify the delta1 modulus by index; phases stay uniform
        m = (index + rng.random()) / total
        phase = 2.0 * math.pi * rng.random()
        d1 = m * complex(math.cos(phase), math.sin(phase))
        data = PrescribedData(z0, d0, d1)
        alphas = [complex(math.cos(a), math.sin(a)) for a in (2.0 * math.pi * rng.random(),)]
        aligned = max_attaining_alpha(data)
        if aligned is not None:
            alphas.append(aligned)
        for alpha in alphas:
            g = schur_parametrize(data, Constant(alpha))
            second = abs(g.jet(z0).f2)
            part = _tally(part, bound - second, cfg.tol, second)
    return part


def run_tightness_search(cfg, r, R):
    """Sampled maximisation of |g''(z0)| at |z0| = r, |g(z0)| = R.

    The sample set is stratified over the delta1 modulus, includes the
    aligned boundary parameter for each sample, and always contains the
    closed-form extremal of the active branch, so the supremum is reached up
    to sampling resolution.  No sample may exceed the bound.
    """
    result = theorem31_bound(r, R)
    bound = result.value
    start = time.perf_counter()
    parts = _map_chunks(partial(_tightness_chunk, cfg, float(r), float(R), bound), cfg.samples, cfg.parallel)
    part = _merge(parts)

    # deterministic candidates: the branch extremal and unimodular delta1
    z0 = complex(float(r))
    d0 = complex(float(R))
    candidates = [make_extremal(kind_for_branch(result.branch), z0=z0, delta0=d0)]
    if abs(z0) > 0:
        for d1 in _UNIMODULAR_GRID:
            candidates.append(make_extremal(ExtremalKind.SECOND_DEGENERATE, z0=z0, delta0=d0, delta1=d1))
    for g in candidates:
        second = abs(g.jet(z0).f2)
        part = _tally(part, bound - second, cfg.tol, second)
    n, violations, worst, best = part

    return HarnessReport(
        suite="tightness",
        samples=n,
        violations=violations,
        worst_margin=worst,
        wall_time=time.perf_counter() - start,
        details={
            "r": float(r),
            "R": float(R),
            "branch": result.branch.value,
            "bound": bound,
            "best": best,
            "gap": None if best is None else bound - best,
        },
    )
