"""The benchmark's workloads: seeded call plans, one call's execution and its checks.

A call is the unit of latency: one harness suite call at a fixed size, or one
fresh ``diskvar`` CLI process.  Every call is checked, and a call that fails
any check counts as failed.  Harness calls are checked through invariants (no
violations, the requested counts, a closed tightness gap), never against the
random sample stream itself, so a change to that stream does not fail them.
CLI calls are checked against outputs recorded in ``cli_reference.json``.

Importing this module imports ``diskvar`` from the checkout's ``src``.
"""

import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CLI_CHILD = BENCH / "cli_child.py"
CLI_REFERENCE = BENCH / "cli_reference.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from diskvar import harness  # noqa: E402

# samples per family and call; a parallel call is larger so that the pool has
# work to split, since it starts its workers anew for every call
MEMBERSHIP_SAMPLES = 250
PARALLEL_SAMPLES = 1000
TIGHTNESS_SAMPLES = 500
# one point per bound branch (deg2-zero, deg2, deg1) and one near the seam r + 2R = 2
TIGHTNESS_POINTS = ((0.5, 0.0), (0.3, 0.5), (0.5, 0.9), (0.8, 0.6))
ATTAINMENT_ROWS = 1969
GAP_TOL = 1e-6
CLI_REL_TOL = 1e-12
CLI_COMMANDS = (
    "disk second",
    "disk dieudonne2",
    "disk mercer",
    "bound thm31",
    "bound table",
    "extremal verify",
)


@dataclass(frozen=True)
class Call:
    """One unit of latency.  ``kind`` is membership, sweep or cli."""

    kind: str
    seed: int = 0
    samples: int = 0
    parallel: bool = False
    point: tuple = ()
    case: dict | None = None


@dataclass
class Outcome:
    """What one call did: checked units, whether every check held, wall time.

    ``rss_kb`` is the peak RSS of a CLI child; ``stages`` holds its stage
    timings when the child ran traced.
    """

    units: int
    ok: bool
    seconds: float
    rss_kb: int = 0
    stages: dict | None = None


def child_env():
    """Environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def load_cli_cases():
    """The recorded CLI cases, as {command: [{"argv": [...], "stdout": "..."}]}."""
    with open(CLI_REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["cases"]


def plan(workload, seed, cases=None):
    """Endless, seed-determined sequence of calls for a workload."""
    rng = random.Random(seed)
    if workload in ("membership", "membership-parallel"):
        parallel = workload == "membership-parallel"
        samples = PARALLEL_SAMPLES if parallel else MEMBERSHIP_SAMPLES
        while True:
            yield Call("membership", seed=rng.randrange(2**31), samples=samples, parallel=parallel)
    elif workload == "sweep":
        while True:
            for point in TIGHTNESS_POINTS:
                yield Call("sweep", seed=rng.randrange(2**31), point=point)
    elif workload == "cli":
        cases = load_cli_cases() if cases is None else cases
        while True:
            for command in CLI_COMMANDS:
                yield Call("cli", case=rng.choice(cases[command]))
    else:
        raise ValueError(f"unknown workload {workload!r}")


def execute(call, trace=False):
    """Run one call and check its outputs."""
    if call.kind == "cli":
        return _run_cli(call.case, trace)
    start = time.perf_counter()
    if call.kind == "membership":
        cfg = harness.HarnessConfig(seed=call.seed, samples=call.samples, parallel=call.parallel)
        reports = [harness.run_membership_suite(cfg)]
        ok = reports[0].samples == call.samples * len(harness.MEMBERSHIP_FAMILIES)
    elif call.kind == "sweep":
        attainment = harness.run_attainment_suite(harness.HarnessConfig())
        cfg = harness.HarnessConfig(seed=call.seed, samples=TIGHTNESS_SAMPLES)
        tightness = harness.run_tightness_search(cfg, *call.point)
        reports = [attainment, tightness]
        # every random tightness sample is checked at least once, plus the branch extremal
        gap = tightness.details["gap"]
        ok = (attainment.samples == ATTAINMENT_ROWS and tightness.samples > TIGHTNESS_SAMPLES
              and gap is not None and gap <= GAP_TOL)
    else:
        raise ValueError(f"unknown call kind {call.kind!r}")
    seconds = time.perf_counter() - start
    ok = ok and all(r.violations == 0 for r in reports)
    return Outcome(sum(r.samples for r in reports), ok, seconds)


def _run_cli(case, trace):
    cmd = [sys.executable, str(CLI_CHILD), "1" if trace else "0", *case["argv"]]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT
    )
    # outputs are a few kB, far below a pipe buffer, so reading one stream to its
    # end before the other cannot block the child
    with proc.stdout, proc.stderr:
        out = proc.stdout.read().decode()
        err = proc.stderr.read().decode()
    # wait4 rather than wait, for this child's own peak RSS
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stages = None
    if trace:
        lines = [ln for ln in err.splitlines() if ln.startswith("BENCH_STAGES ")]
        stages = json.loads(lines[-1].split(" ", 1)[1]) if lines else None
    ok = proc.returncode == 0 and outputs_match(case["stdout"], out)
    return Outcome(1, ok, seconds, rss_kb=usage.ru_maxrss, stages=stages)


_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def outputs_match(expected, actual, rel_tol=CLI_REL_TOL):
    """True when two outputs agree in every character outside numbers and
    every number agrees to ``rel_tol`` relative.  Works on JSON and CSV alike."""
    want = _NUMBER.split(expected)
    got = _NUMBER.split(actual)
    if len(want) != len(got):
        return False
    for i, (a, b) in enumerate(zip(want, got)):
        if i % 2 == 0:
            if a != b:
                return False
        elif abs(float(a) - float(b)) > rel_tol * max(abs(float(a)), abs(float(b))):
            return False
    return True
