"""Reproduce the per-layer baselines quoted in ROADMAP aim 1, next to the ROADMAP figures.

    python3 bench/baseline.py

Prints one table row per baseline and, as the last line, one JSON object with
the measured values and the machine facts (redirect it to keep a record).
Each figure is the median of REPEATS timings on seed 42.  Tier-1 wall time is
not measured here: it times the test suite, not the program, and stays
outside the benchmark.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from diskvar import harness  # noqa: E402
from diskvar.functions import substream  # noqa: E402
from run import machine_facts  # noqa: E402
from workloads import ROOT, child_env  # noqa: E402

REPEATS = 3
IMPORT_REPEATS = 9
FAMILY_SAMPLES = 2000
TIGHTNESS_SAMPLES = 2000
PARALLEL_SAMPLES = 10000
SUBSTREAMS = 20000
IMPORT_CODE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import diskvar; t2 = time.perf_counter(); print(t1 - t0, t2 - t0)"
)

# (key, label, unit, figure quoted in ROADMAP aim 1 or None)
ROWS = (
    ("membership_us", "membership, all families", "us/sample", 82),
    ("membership_second_us", "membership, second", "us/sample", None),
    ("membership_dieudonne_us", "membership, dieudonne", "us/sample", None),
    ("membership_mercer_us", "membership, mercer", "us/sample", None),
    ("tightness_us", "tightness at r=0.5, R=0.25", "us/sample", 45),
    ("attainment_us", "attainment", "us/row", 29),
    ("substream_us", "substream (np.random.default_rng)", "us/call", 21),
    ("parallel_speedup", f"--parallel speed-up, {PARALLEL_SAMPLES} samples", "x", 1.28),
    ("import_ms", "import diskvar", "ms", 208),
    ("import_numpy_ms", "  of which numpy", "ms", 140),
)


def _median_time(fn):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def _per_unit_us(run):
    seconds, report = _median_time(run)
    return seconds / report.samples * 1e6


def measure():
    cfg = harness.HarnessConfig(seed=42, samples=FAMILY_SAMPLES)
    out = {"membership_us": _per_unit_us(lambda: harness.run_membership_suite(cfg))}
    for family in harness.MEMBERSHIP_FAMILIES:
        out[f"membership_{family}_us"] = _per_unit_us(
            lambda: harness.run_membership_suite(cfg, (family,)))
    tight = harness.HarnessConfig(seed=42, samples=TIGHTNESS_SAMPLES)
    out["tightness_us"] = _per_unit_us(lambda: harness.run_tightness_search(tight, 0.5, 0.25))
    out["attainment_us"] = _per_unit_us(lambda: harness.run_attainment_suite(cfg))
    seconds, _ = _median_time(lambda: [substream(42, 11, i) for i in range(SUBSTREAMS)])
    out["substream_us"] = seconds / SUBSTREAMS * 1e6

    os.environ["THREADS"] = str(len(os.sched_getaffinity(0)))
    serial = harness.HarnessConfig(seed=42, samples=PARALLEL_SAMPLES)
    parallel = harness.HarnessConfig(seed=42, samples=PARALLEL_SAMPLES, parallel=True)
    serial_s, _ = _median_time(lambda: harness.run_membership_suite(serial))
    parallel_s, _ = _median_time(lambda: harness.run_membership_suite(parallel))
    out["parallel_speedup"] = serial_s / parallel_s

    numpy_s, total_s = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], capture_output=True,
                              text=True, env=child_env(), cwd=ROOT, check=True)
        a, b = map(float, proc.stdout.split())
        numpy_s.append(a)
        total_s.append(b)
    out["import_ms"] = statistics.median(total_s) * 1e3
    out["import_numpy_ms"] = statistics.median(numpy_s) * 1e3
    return out


def main():
    facts = machine_facts()
    values = measure()
    print(f"{'baseline':40s} {'measured':>10s} {'ROADMAP':>8s}  unit")
    for key, label, unit, figure in ROWS:
        quoted = "-" if figure is None else f"{figure:g}"
        print(f"{label:40s} {values[key]:10.2f} {quoted:>8s}  {unit}")
    print(f"numpy share of import: {values['import_numpy_ms'] / values['import_ms']:.0%}; "
          f"machine: {facts['nproc']} x {facts['cpu_model']}, Python {facts['python']}, "
          f"numpy {facts['numpy']}; tier-1 wall time is not measured here")
    print(json.dumps({"facts": facts, "seed": 42, "values": values}))


if __name__ == "__main__":
    main()
