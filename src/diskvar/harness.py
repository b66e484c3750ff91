"""Randomized verification suites.

Three suites back the closed-form results numerically:

* membership: for each family of ``MEMBERSHIP_FAMILIES`` (the
  second-derivative, Dieudonne and Mercer disks), random interpolation data
  and random Schur-class parameters are pushed through the
  parametrizations; the predicted derivative must land in the predicted
  disk, every time;
* attainment: extremal functions are swept over parameter grids and must land
  on their targets: the predicted disk boundaries (a smaller concentric circle
  for an interior parameter) and bound values;
* tightness: coarse maximisation of |g''(z0)| over sampled parameters must
  approach the sharp bound from below and never cross it.

Sampling is deterministic.  Membership and tightness draw their random
parameters in blocks of ``_BLOCK`` samples, from an independent RNG substream
keyed by (seed, family or suite tag, block), in one order, and a chunk
transforms only its own lanes, so no lane depends on another or on the
split.  A tightness chunk draws all of its block's uniforms.  A membership
chunk draws its block's Blaschke degrees, then its uniforms lane-major up to
its last lane only, in one generator call (``functions._draw_schur``, the
draw behind ``random_schur_function`` too): the first rows of a C-order draw
do not depend on its length.
The samples of a block are checked together, as a batch
(numpy arrays, one lane per sample), through the same trees, parametrizations
and closed forms that evaluate a single sample.  Chunks of indices return
their per-sample values in index order, so any split, serial or parallel,
gives a suite the same values, from which it builds its report once.  A
parallel call forks only where every child gets at least the suite's
crossover, the samples at which a child pays for its fork and its import of
numpy's random module (``_MEMBERSHIP_PER_CHILD``, ``_TIGHTNESS_PER_CHILD``);
a smaller one runs in-process, as a serial call does.  A call that forks runs
one child per range, at most one per core the process may run on, up to 8
(``_workers``); each child sends its values back through a pipe, none of the
chunks runs in the parent, and no child outlives the call.  Before it forks,
the parent imports ``secrets`` (with ``hmac``, ``hashlib`` and OpenSSL's
``_hashlib``), since numpy's ``bit_generator`` imports ``secrets.randbits``:
every child inherits OpenSSL instead of loading it with its own import of
numpy's random module.  The parent preloads no more than that, because what it
holds counts in its own peak memory, and numpy's random module would cost it
nearly twice what OpenSSL does.

The attainment grids are fixed, not sampled.  Each kind's grid, disk kind or
sharp kind, comes as a few lane-array grid points, their targets from one
lane-wise call of the closed form or bound, and is checked as one batch
through one extremal tree: each row of a grid point takes that point's lanes,
and ``extremal.attainment_distance`` measures the rows against the point's own
target.  The tightness search's deterministic candidates are lanes as well.
"""

import math
import os
import pickle
import time
from functools import partial, reduce
from typing import NamedTuple

import numpy as np

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
    Bracket,
    Constant,
    FunctionExpr,
    Identity,
    MobiusT,
    PrescribedData,
    Product,
    Rotation,
    _disk_point,
    _draw_schur,
    _nest,
    dieudonne_parametrize,
    schur_parametrize,
    substream,
)
from .moebius import DomainError, Jet2, _Frozen, _refuse_batch, _set_field, require_int, require_real

# not called here: the kind table computes the attainment targets, and
# membership checks each block through one batched template, never a scalar
# tree per sample; kept bound because bench/tracing.py wraps these names in
# this module
from .disks import schwarz_pick_disk, second_order_dieudonne_disk  # noqa: F401
from .extremal import branch_bound_for  # noqa: F401
from .functions import _schur_tree  # noqa: F401

__all__ = [
    "HarnessConfig",
    "HarnessReport",
    "run_membership_suite",
    "run_attainment_suite",
    "run_tightness_search",
    "MEMBERSHIP_FAMILIES",
]

# each membership family with its RNG substream tag
_FAMILY_TAGS = {"second": 11, "dieudonne": 12, "mercer": 13}
MEMBERSHIP_FAMILIES = tuple(_FAMILY_TAGS)
# the uniforms of each family's interpolation data per sample: z0, delta0
# and delta1, or z0, w0 / z0 and, for Mercer, z
_DATA_WIDTH = {"second": 6, "dieudonne": 4, "mercer": 6}
_TIGHTNESS_TAG = 31
# samples per random block
_BLOCK = 1024
# the fewest samples a forked child takes, per suite: below these a child
# costs more to fork, reap and import numpy's random module in than it saves
# (serial against forked calls on 2 cores, in README)
_MEMBERSHIP_PER_CHILD = 6000
_TIGHTNESS_PER_CHILD = 100_000
# the largest stratified |delta1|: 8 ulps below 1, so that |delta1| < 1 holds
# after the rounding of the modulus, of e^{i phase} and of their product
_DELTA1_CAP = 1.0 - 2.0**-50


class HarnessConfig(_Frozen):
    """``tol`` is the slack of every check, relative where the checked
    quantity can grow: disk inclusion in membership (margins are scaled by
    1 + radius), the bound in tightness (a sample fails when it exceeds the
    bound by more than tol * (1 + bound)), the distance to the target in
    attainment."""

    seed: int
    samples: int
    tol: float
    parallel: bool

    def __init__(self, seed=42, samples=10000, tol=1e-8, parallel=False):
        _set_field(self, "seed", require_int(seed, "seed"))
        _set_field(self, "samples", require_int(samples, "samples"))
        _refuse_batch(tol, "tol", "HarnessConfig")
        tol = require_real(tol, "tol", finite=False)
        if not tol > 0.0:
            raise DomainError("tol must be positive")
        if tol == math.inf:
            raise DomainError("tol must be finite, got inf")
        _set_field(self, "tol", tol)
        if not isinstance(parallel, bool):
            raise DomainError(f"parallel must be True or False, got {parallel!r}")
        _set_field(self, "parallel", parallel)


class HarnessReport(NamedTuple):
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
    """One per core this process may run on, up to 8: a parallel call forks
    all of its children at once.  A narrower CPU affinity (``taskset``)
    gives fewer."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cores, 8)


def _chunk_ranges(n, pieces):
    """``pieces`` contiguous ranges that cover 0..n-1, their sizes within one
    of each other."""
    return [(n * i // pieces, n * (i + 1) // pieces) for i in range(pieces)]


def _map_chunks(fn, n, per_child):
    """fn over index ranges that cover 0..n-1, its results in index order, so
    that parallel == serial.  ``per_child`` is None for a serial call.  A
    parallel call forks one child per range: at most one range per worker,
    each of ``per_child`` samples or more, since every chunk draws the
    degrees of the whole block of each family it touches and builds its own
    tree template, and each child is forked and imports numpy's random
    module anew.  With fewer than two ranges, or where ``os.fork`` is
    missing, fn runs once here, over all of 0..n-1, as in a serial call; a
    call that forks runs no range here.
    Before the first fork the parent imports ``secrets`` for the children, as
    the module docstring tells."""
    if n == 0:
        return []
    if per_child is None:
        return [fn((0, n))]
    ranges = _chunk_ranges(n, min(_workers(), max(1, n // per_child)))
    if len(ranges) == 1 or not hasattr(os, "fork"):
        return [fn((0, n))]
    # OpenSSL for the children (module docstring)
    import secrets  # noqa: F401

    pipes, pids = [], []
    try:
        for rg in ranges:
            read, write = os.pipe()
            pipes.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _run_forked(fn, rg, pipes, write)
            finally:
                os.close(write)
            pids.append(pid)
        return [_forked_result(read, rg) for read, rg in zip(pipes, ranges)]
    finally:
        # closed before the waits: a child blocked writing a result larger
        # than the pipe's buffer then fails its write and exits
        for read in pipes:
            os.close(read)
        for pid in pids:
            os.waitpid(pid, 0)


def _run_forked(fn, rg, pipes, write):
    """In a forked child: pickle (True, fn(rg)), or (False, the exception it
    raised), into the pipe, and leave without running atexit handlers or
    flushing the stdio buffers copied from the parent."""
    code = 1
    try:
        for read in pipes:
            os.close(read)
        try:
            data = pickle.dumps((True, fn(rg)), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            data = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        with open(write, "wb", closefd=False) as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _forked_result(read, rg):
    """The result a child wrote for rg; its exception is raised here.  A
    child that ended before it wrote the whole result, or any of it, is a
    ``ChildProcessError`` that names its samples."""
    with open(read, "rb", closefd=False) as pipe:
        data = pipe.read()
    child = f"the child for samples {rg[0]}..{rg[1] - 1}"
    if not data:
        raise ChildProcessError(f"{child} ended without a result")
    try:
        ok, value = pickle.loads(data)
    except (pickle.UnpicklingError, EOFError) as exc:
        raise ChildProcessError(f"{child} ended with a truncated result") from exc
    if not ok:
        raise value
    return value


def _violations(margins, tol):
    """The number of margins below -tol; a NaN margin is never a pass."""
    return int(np.count_nonzero(~(margins >= -tol)))


def _report(suite, margins, tol, start, details):
    """The report of a suite from all of its margins: their number, the
    violations, and the least margin other than NaN (None when there is
    none); wall_time runs from ``start``."""
    worst = _reduce(np.min, margins)
    return HarnessReport(suite, margins.size, _violations(margins, tol), worst, time.perf_counter() - start, details)


def _reduce(fn, a):
    """fn over the non-NaN entries of a as a float, or None when there are none."""
    a = a[~np.isnan(a)]
    return float(fn(a)) if a.size else None


def _blocks(rg):
    """(block, lanes) for each block of ``_BLOCK`` samples that the indices
    lo..hi-1 touch, lanes slicing the block to them.  A chunk's draw of a
    block does not depend on the lanes it slices (module docstring), so any
    split of the indices sees the same lanes."""
    lo, hi = rg
    for block in range(lo // _BLOCK, (hi + _BLOCK - 1) // _BLOCK):
        first = block * _BLOCK
        yield block, slice(max(lo - first, 0), min(hi - first, _BLOCK))


class _Select(_Frozen, FunctionExpr):
    """Batch-only node: ``then`` in the lanes where ``mask`` holds, ``other``
    elsewhere.  It pads random trees of different shapes to one template and
    has no JSON form.  It equals only itself: its mask is an array."""

    mask: object
    then: FunctionExpr
    other: FunctionExpr
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, mask, then, other):
        _set_field(self, "mask", mask)
        _set_field(self, "then", then)
        _set_field(self, "other", other)
        _nest(self, then, other)

    def jet(self, z0, order=2):
        # both sides have the order asked for, so a None pairs with a None
        pairs = zip(self.then.jet(z0, order), self.other.jet(z0, order))
        return Jet2(*(None if a is None else np.where(self.mask, a, b) for a, b in pairs))


def _schur_template(p):
    """One tree for a batch of random Schur trees, ``_draw_schur``'s lanes:
    T_c(s * base), where base is the constant k at degree 0 and e^{i theta}
    times the bracket factors [z, w_j] otherwise, each factor at or beyond the
    lane's degree padded to 1; s = 1 where the lane is not scaled and c = 0
    where it is not wrapped.  Lane by lane it evaluates as the scalar tree
    ``functions._schur_tree`` builds."""
    degree = p["degree"]
    factors = [_Select(j < degree, Bracket(w, Identity()), Constant(1.0)) for j, w in enumerate(p["zeros"])]
    base = _Select(degree == 0, Constant(p["k"]), Rotation(p["theta"], reduce(Product, factors)))
    s = np.where(p["scaled"], p["s"], 1.0)
    return MobiusT(np.where(p["wrapped"], p["c"], 0.0), Product(Constant(s), base))


def _draw_block(family, rng, lanes):
    """Every random parameter of ``lanes`` of one block of a family:
    ``_draw_schur``'s draw, each lane's row starting with the family's
    interpolation data, two uniforms per point.  The Dieudonné and Mercer
    forms divide by z0, so their z0 takes its radius uniform floored at
    2e-12, which keeps |z0| >= 0.95 * sqrt(2e-12) = 1.34e-6."""
    u, p = _draw_schur(rng, _BLOCK, lanes, _DATA_WIDTH[family])

    def point(cap, row):
        return _disk_point(cap, u[row], u[row + 1])

    if family == "second":
        p.update(z0=point(0.95, 0), delta0=point(0.95, 2), delta1=point(0.98, 4))
    else:
        p["z0"] = _disk_point(0.95, np.maximum(u[0], 2e-12), u[1])
        p["w0"] = point(0.95, 2) * p["z0"]
        if family == "mercer":
            p["z"] = point(0.95, 4)
    return p


def _block_margins(family, p):
    """Inclusion margins of a batch of samples in their predicted disks."""
    z0 = p["z0"]
    gstar = _schur_template(p)
    if family == "second":
        data = PrescribedData(z0, p["delta0"], p["delta1"])
        g = schur_parametrize(data, gstar)
        return second_derivative_disk(data).margin(g.jet(z0).f2)
    f = dieudonne_parametrize(z0, p["w0"], gstar)
    if family == "dieudonne":
        return dieudonne_disk(z0, p["w0"]).margin(f.jet(z0, 1).f1)
    return mercer_disk(z0, p["w0"], p["z"]).margin(f.value(p["z"]))


def _membership_chunk(cfg, families, rg):
    """The margins of samples lo..hi-1, one row per family."""
    margins = [[] for _ in families]
    for block, lanes in _blocks(rg):
        for row, family in zip(margins, families):
            p = _draw_block(family, substream(cfg.seed, _FAMILY_TAGS[family], block), lanes)
            row.append(_block_margins(family, p))
    return np.array([np.concatenate(row) for row in margins])


def _require_config(cfg):
    if not isinstance(cfg, HarnessConfig):
        raise DomainError(f"cfg must be a HarnessConfig, got {cfg!r}")


def _names(values, what):
    """The names in ``values`` as a tuple.  A bare string, which would be
    its characters, and a value that is not a sequence are refused."""
    if not isinstance(values, str):
        try:
            return tuple(values)
        except TypeError:
            pass
    raise DomainError(f"{what} must be a sequence of names, got {values!r}")


def run_membership_suite(cfg, families=MEMBERSHIP_FAMILIES):
    """Check cfg.samples random samples per family against their disks."""
    _require_config(cfg)
    families = _names(families, "families")
    for family in families:
        if not isinstance(family, str) or family not in _FAMILY_TAGS:
            raise DomainError(f"unknown membership family {family!r}")
    if not families or len(set(families)) < len(families):  # a repeated one would count twice
        raise DomainError(f"membership needs one or more distinct families, got {','.join(families) or 'none'}")
    start = time.perf_counter()
    per_child = _MEMBERSHIP_PER_CHILD if cfg.parallel else None
    parts = _map_chunks(partial(_membership_chunk, cfg, families), cfg.samples, per_child)
    margins = np.concatenate([np.empty((len(families), 0)), *parts], axis=1)
    details = {"families": list(families), "per_family_samples": cfg.samples}
    return _report("membership:" + "+".join(families), margins, cfg.tol, start, details)


# -- attainment ---------------------------------------------------------------


def _tile(value, rows, n):
    """A scalar, n lanes, or one of either per row (shape (rows, 1) or (rows,
    n)) as rows * n lanes, in row order."""
    out = np.empty((rows, n), np.asarray(value).dtype)  # a third of np.broadcast_to's cost
    out[...] = value
    return out.ravel()


def _attainment_margins(spec):
    """Minus the distance of every check of one kind's attainment grid from
    its target: each grid point's probes, then each row's pins.

    The grid points hold lane arrays.  Each point's data and free values are
    tiled once per row, so the kind's rows are the lanes of one extremal tree
    and one jet, and a check is a slice of those lanes, measured row by row
    against its grid point's own target.
    """
    lanes, probes, pins = {}, [], []  # a check: (target, component, lanes, shape)
    start = 0
    for point in spec.grid():
        k, n = len(point.rows), point.data["z0"].size
        frees = {name: np.array([free[name] for free, _ in point.rows]).reshape(k, -1) for name in point.rows[0][0]}
        for name, values in {**point.data, **frees}.items():
            lanes.setdefault(name, []).append(_tile(values, k, n))
        probes.append((point.target, spec.probe, slice(start, start + k * n), (k, n)))
        for row, (_, pinned) in enumerate(point.rows):
            at = slice(start + row * n, start + (row + 1) * n)
            pins += [(disk, part, at, n) for part, disk in pinned]
        start += k * n

    lanes = {name: np.concatenate(values) for name, values in lanes.items()}
    # to the highest order a probe or a pin reads
    order = max(Jet2._fields.index(part) for _, part, _, _ in probes + pins)
    jet = make_extremal(spec.kind, **lanes).jet(lanes["z0"], order)
    distances = [
        attainment_distance(target, getattr(jet, part)[at].reshape(shape)).ravel()
        for target, part, at, shape in probes + pins
    ]
    return -np.concatenate(distances)


def run_attainment_suite(cfg, kinds=None):
    """Sweep extremal kinds over deterministic grids.

    Every check is the distance of a jet component from its target (a disk
    boundary or a bound), and fails beyond cfg.tol.  Each kind's grid is
    checked as one batch, through one extremal tree, and keeps its margins
    for its violation count.  Rows are deterministic (no sampling), so
    cfg.seed, cfg.samples and cfg.parallel do not change the report.
    """
    _require_config(cfg)
    specs = [kind_spec(kind) for kind in (ExtremalKind if kinds is None else _names(kinds, "kinds"))]
    names = [spec.kind.value for spec in specs]
    if not names or len(set(names)) < len(names):  # a repeated one would count twice
        raise DomainError(f"attainment needs one or more distinct kinds, got {','.join(names) or 'none'}")
    start = time.perf_counter()
    margins = {spec.kind.value: _attainment_margins(spec) for spec in specs}
    details = {
        "kinds": names,
        "violations_by_kind": {name: _violations(m, cfg.tol) for name, m in margins.items()},
    }
    return _report("attainment", np.concatenate(list(margins.values())), cfg.tol, start, details)


# -- tightness ----------------------------------------------------------------


def _tightness_chunk(cfg, r, R, rg):
    """|g''(z0)| of samples lo..hi-1, each block's random lanes first.

    Sample i has |delta1| stratified into [i, i + 1) / samples, a uniform
    phase and a random unimodular alpha; where the center of its g''(z0) disk
    is nonzero it is checked at the aligned alpha as well.
    """
    z0 = complex(r)
    d0 = complex(R)
    parts = []
    for block, lanes in _blocks(rg):
        u, phase, angle = substream(cfg.seed, _TIGHTNESS_TAG, block).random((3, _BLOCK))[:, lanes]
        index = np.arange(block * _BLOCK, (block + 1) * _BLOCK)[lanes]
        d1 = np.minimum((index + u) / cfg.samples, _DELTA1_CAP) * np.exp(2j * math.pi * phase)
        aligned = max_attaining_alpha(PrescribedData(z0, d0, d1))
        has = ~np.isnan(aligned)
        data = PrescribedData(z0, d0, np.concatenate([d1, d1[has]]))
        alpha = np.concatenate([np.exp(2j * math.pi * angle), aligned[has]])
        parts.append(abs(schur_parametrize(data, Constant(alpha)).jet(z0).f2))
    return np.concatenate(parts)


def run_tightness_search(cfg, r, R):
    """Sampled maximisation of |g''(z0)| at |z0| = r, |g(z0)| = R.

    The sample set is stratified over the delta1 modulus, includes the
    aligned boundary parameter for each sample, and always contains the
    closed-form extremal of the active branch, so the supremum is reached up
    to sampling resolution.  The random samples are drawn and checked per
    block of ``_BLOCK``, as batches; the deterministic candidates are lanes
    too, one tree for the branch extremal and one for the unimodular delta1
    grid.  No sample may exceed the bound by more than cfg.tol * (1 + bound):
    the bound grows like (1 - r^2)^-2, and a fixed slack would count rounding
    error near the boundary as a violation.
    """
    _require_config(cfg)
    result = theorem31_bound(r, R)
    bound = result.value
    start = time.perf_counter()
    per_child = _TIGHTNESS_PER_CHILD if cfg.parallel else None
    parts = _map_chunks(partial(_tightness_chunk, cfg, float(r), float(R)), cfg.samples, per_child)

    # deterministic candidates, as lanes: the branch extremal, and one
    # second-degenerate lane per unimodular delta1 where z0 != 0
    z0 = np.array([complex(float(r))])
    d0 = np.array([complex(float(R))])
    candidates = [make_extremal(kind_for_branch(result.branch), z0=z0, delta0=d0)]
    if float(r) > 0.0:
        d1 = np.array(_UNIMODULAR_GRID)
        candidates.append(make_extremal(ExtremalKind.SECOND_DEGENERATE, z0=z0, delta0=d0, delta1=d1))
    second = np.concatenate([*parts, *(abs(g.jet(z0).f2) for g in candidates)])
    best = _reduce(np.max, second)
    details = {
        "r": float(r),
        "R": float(R),
        "branch": result.branch.value,
        "bound": bound,
        "best": best,
        "gap": None if best is None else bound - best,
    }
    return _report("tightness", bound - second, cfg.tol * (1.0 + bound), start, details)
