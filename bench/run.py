"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload membership --seed 42 --seconds 20 --trace 0

With ``--trace 0`` the run repeats the workload's calls for ``--seconds``
seconds, untraced, after one warm-up call, and reports the end-to-end metrics
named in ``BENCHMARK.json``.  Call times are divided by the host's slowness,
measured between calls, so that they read as on an idle host (see
``bench/README.md``).  With ``--trace 1`` it runs a fixed number of
calls (so counts repeat exactly at a fixed seed) once untraced and once
traced, and reports the per-layer metrics with the tracing overhead; the
spans go to ``bench/out/<workload>-seed<seed>.trace.json``.  ``--profile N``
adds a cProfile top-N listing of the same calls beside the trace.

Every call is checked.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the machine facts and run details.  The run exits 2 without a
result when the checkout has no ``src/diskvar``.
"""

import argparse
import cProfile
import dataclasses
import io
import json
import multiprocessing
import os
import platform
import pstats
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("membership", "sweep", "cli", "membership-parallel")
SETUP_REPEATS = 15
SETUP_CODE = "import time; t = time.perf_counter(); import diskvar; print(time.perf_counter() - t)"
# calls in one traced pass; a pass takes 1-3 s untraced on a 2-core Xeon host
TRACE_CALLS = {"membership": 32, "sweep": 16, "cli": 12, "membership-parallel": 8}
TAIL_BEYOND = 10
# Timings are reported at the speed of an idle host.  The host this was built
# on is shared, and its speed swings by half or more within minutes; the
# slowness functions below measure that and the timings are divided by it.
LOOP_ITERATIONS = 20000
LOOP_IDLE_S = 0.0075  # fastest time of the loop on a 2-core Xeon host
IMPORT_IDLE_S = 0.100  # `python3 -c "import numpy"` on the same host when idle


def machine_facts():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def declared_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def loop_slowness(_=None):
    """Time of a fixed pure-Python loop over its time on an idle host.  The loop
    does the kind of work the harness does (complex arithmetic, small objects,
    calls) and nothing of diskvar, so no change to the program can move it."""
    rng = random.Random(1)
    acc = 0j
    start = time.perf_counter()
    for _ in range(LOOP_ITERATIONS):
        z = complex(rng.random(), rng.random())
        t = (z + 0.3) / (1.0 + 0.3 * z.conjugate())
        acc += t * t
    return (time.perf_counter() - start) / LOOP_IDLE_S


def pool_slowness():
    """Mean loop slowness measured in a fresh pool of forked workers, as many as
    the harness uses: the reference for parallel calls, which start such a pool
    and depend on every core, not only on the one this process runs on."""
    from workloads import harness

    workers = harness._workers()
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return statistics.mean(pool.map(loop_slowness, range(workers)))


def import_slowness():
    """Time to start an interpreter and import numpy, over its time on an idle
    host: the reference for work that starts processes and imports modules.
    That work follows the host's speed (and its file cache) differently from a
    loop in a running process; numpy is most of what ``import diskvar`` loads,
    and nothing of diskvar is imported."""
    from workloads import child_env

    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(), cwd=ROOT, check=True)
    return (time.perf_counter() - start) / IMPORT_IDLE_S


def at_reference_speed(seconds, slowness):
    """Scale each timing by the mean slowness measured just before and just after it."""
    return [t * 2.0 / (a + b) for t, a, b in zip(seconds, slowness, slowness[1:])]


def measure_setup(repeats=SETUP_REPEATS):
    """Median time to ``import diskvar`` in a fresh interpreter, at reference
    speed and as measured.  One untimed import first, so every timed one finds
    the bytecode cache written."""
    from workloads import child_env

    times, slowness = [], [import_slowness()]
    for i in range(repeats + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, check=True)
        if i:
            times.append(float(proc.stdout))
            slowness.append(import_slowness())
    return statistics.median(at_reference_speed(times, slowness)), statistics.median(times)


def latency(seconds):
    """Median and the value with TAIL_BEYOND samples beyond it, in ms, with that percentile."""
    xs = sorted(seconds)
    k = max(0, len(xs) - TAIL_BEYOND - 1)
    return statistics.median(xs) * 1e3, xs[k] * 1e3, 100.0 * (k + 1) / len(xs)


def _peak_rss_mb(outcomes):
    if any(o.rss_kb for o in outcomes):
        return max(o.rss_kb for o in outcomes) / 1024.0  # the largest CLI child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, pool) / 1024.0


def _timing_metrics(units, seconds):
    p50, tail, tail_pct = latency(seconds)
    return {"throughput_per_s": units / sum(seconds), "latency_p50_ms": p50,
            "latency_tail_ms": tail}, tail_pct


def timed_run(workload, seed, seconds, cases=None):
    """Untraced run: one warm-up call, then calls until ``seconds`` have passed,
    with the host's slowness measured between calls."""
    from workloads import execute, plan

    calls = plan(workload, seed, cases)
    warm = execute(next(calls))
    slowness_now = {"cli": import_slowness, "membership-parallel": pool_slowness}.get(
        workload, loop_slowness)
    timed, slowness = [], [slowness_now()]
    deadline = time.perf_counter() + seconds
    while not timed or time.perf_counter() < deadline:
        timed.append(execute(next(calls)))
        slowness.append(slowness_now())
    units = sum(o.units for o in timed)
    wall = [o.seconds for o in timed]
    metrics, tail_pct = _timing_metrics(units, at_reference_speed(wall, slowness))
    metrics["peak_rss_mb"] = _peak_rss_mb([warm] + timed)
    measured, _ = _timing_metrics(units, wall)
    outcomes = [warm] + timed
    return {
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": metrics,
        "details": {"calls": len(timed), "units": units, "tail_percentile": tail_pct,
                    "slowness_median": statistics.median(slowness), "as_measured": measured},
    }


def _pass(calls, tracer=None):
    from workloads import execute

    outcomes = []
    start = time.perf_counter()
    for index, call in enumerate(calls):
        if tracer is not None:
            tracer.call_index = index
        outcomes.append(execute(call, trace=tracer is not None))
    return time.perf_counter() - start, outcomes


def _profile(workload, calls, top, path):
    """cProfile top-N of the calls, taken from outside the package.  For CLI
    calls each child runs under ``python -m cProfile`` and the stats are summed."""
    from workloads import CLI_CHILD, child_env

    if workload == "cli":
        stats = None
        with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
            for index, call in enumerate(calls):
                dump = os.path.join(tmp, f"{index}.prof")
                subprocess.run([sys.executable, "-m", "cProfile", "-o", dump, str(CLI_CHILD), "0",
                                *call.case["argv"]], capture_output=True, env=child_env(),
                               cwd=ROOT, check=True)
                if stats is None:
                    stats = pstats.Stats(dump, stream=io.StringIO())
                else:
                    stats.add(dump)
    else:
        profiler = cProfile.Profile()
        profiler.enable()
        _pass(calls)
        profiler.disable()
        stats = pstats.Stats(profiler, stream=io.StringIO())
    stats.stream = io.StringIO()
    stats.sort_stats("tottime").print_stats(top)
    path.write_text(stats.stream.getvalue(), encoding="utf-8")


def traced_run(workload, seed, profile_top=0, calls_per_pass=None, facts=None):
    """Fixed-size run: untraced pass, traced pass, per-layer metrics."""
    from tracing import Tracer
    from workloads import OUT, execute, harness, plan

    n = calls_per_pass or TRACE_CALLS[workload]
    calls = list(islice(plan(workload, seed), n))
    warm = execute(calls[0])
    untraced_s, untraced = _pass(calls)
    tracer = Tracer()
    with tracer.installed():
        traced_s, traced = _pass(calls, tracer)
    for outcome in traced:
        if outcome.stages:
            tracer.merge(outcome.stages.pop("layers"))  # traced inside a CLI child
    units = sum(o.units for o in traced)
    metrics = tracer.layer_metrics()

    efficiency = 0.0
    if workload == "membership-parallel":
        serial_s, serial = _pass([dataclasses.replace(c, parallel=False) for c in calls])
        traced += serial
        efficiency = serial_s / (untraced_s * harness._workers())
    stages = [o.stages for o in traced if o.stages]
    for key in ("import_s", "parse_s", "command_s"):
        metrics[f"cli.{key}"] = statistics.median(s[key] for s in stages) if stages else 0.0
    metrics["cli.numpy_loaded"] = max((s["numpy_loaded"] for s in stages), default=0)
    metrics["harness.pool.efficiency"] = efficiency
    metrics["trace.untraced_per_s"] = units / untraced_s
    metrics["trace.traced_per_s"] = units / traced_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s

    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}"
    trace_doc = {
        "workload": workload,
        "seed": seed,
        "facts": facts,
        "metrics": metrics,
        "spans_recorded": tracer.span_count,
        "span_fields": ["id", "parent", "name", "start", "end", "call"],
        "spans": tracer.spans,
        "cli_stages": stages,
    }
    (OUT / f"{stem}.trace.json").write_text(json.dumps(trace_doc), encoding="utf-8")
    if profile_top:
        _profile(workload, calls, profile_top, OUT / f"{stem}.profile.txt")
    outcomes = [warm] + untraced + traced
    return {
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": metrics,
        "details": {"calls": n, "units": units},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, default=0, metavar="N",
                        help="with --trace 1, also write a cProfile top-N listing")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "diskvar" / "__init__.py").is_file():
        print(f"error: no diskvar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    end_to_end, per_layer = declared_metrics()
    facts = machine_facts()
    if args.workload == "membership-parallel":
        os.environ["THREADS"] = str(facts["nproc"])

    if args.trace:
        result = traced_run(args.workload, args.seed, args.profile, facts=facts)
        units = per_layer
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
        # after the workload, so the pool's peak RSS sees no set-up children
        result["metrics"]["setup_s"], result["details"]["as_measured"]["setup_s"] = measure_setup()
        units = end_to_end
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")

    details = dict(result["details"], failed_ratio=result["failed"] / result["attempted"])
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "facts": facts, **details}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
