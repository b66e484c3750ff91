"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from diskvar import harness  # noqa: E402
from diskvar.moebius import Disk  # noqa: E402

END_TO_END, PER_LAYER = run.declared_metrics()
COUNT_METRICS = [name for name in PER_LAYER
                 if name.endswith(".calls")
                 or name in ("functions.jet.node_evals", "cli.numpy_loaded", "harness.pool.chunks")]


def _run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], capture_output=True,
                          text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_end_to_end_metric_with_its_unit(workload):
    proc = _run_bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    *_, info, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    facts = json.loads(info)["facts"]
    assert set(facts) == {"nproc", "cpu_model", "python", "numpy"}


@pytest.fixture
def threads(monkeypatch):
    monkeypatch.setenv("THREADS", "2")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_gives_every_per_layer_metric(workload, threads):
    result = run.traced_run(workload, 7, calls_per_pass=2)
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(PER_LAYER)
    m = result["metrics"]
    if workload == "cli":
        assert m["cli.import_s"] > 0 and m["cli.numpy_loaded"] == 1
        assert m["disks.calls"] > 0 and m["functions.substream.calls"] == 0
    else:
        assert m["functions.jet.node_evals"] > 0 and m["harness.self_s"] > 0
    assert (m["harness.pool.chunks"] > 0) == (workload == "membership-parallel")
    assert (m["bounds.calls"] > 0) == (workload == "sweep")
    trace = json.loads((workloads.OUT / f"{workload}-seed7.trace.json").read_text())
    assert trace["spans_recorded"] >= len(trace["spans"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_count_metrics_repeat_exactly_at_a_fixed_seed(workload, threads):
    first = run.traced_run(workload, 11, calls_per_pass=2)["metrics"]
    second = run.traced_run(workload, 11, calls_per_pass=2)["metrics"]
    assert {k: first[k] for k in COUNT_METRICS} == {k: second[k] for k in COUNT_METRICS}


def test_pool_workers_report_the_same_layer_counts_as_a_serial_run(threads, monkeypatch):
    monkeypatch.setattr(workloads, "PARALLEL_SAMPLES", workloads.MEMBERSHIP_SAMPLES)
    serial = run.traced_run("membership", 3, calls_per_pass=2)["metrics"]
    pooled = run.traced_run("membership-parallel", 3, calls_per_pass=2)["metrics"]
    for name in COUNT_METRICS:
        if name.startswith(("functions.", "moebius.", "disks.")):
            assert pooled[name] == serial[name] > 0, name


def test_profile_is_written_beside_the_trace():
    run.traced_run("sweep", 5, profile_top=5, calls_per_pass=2)
    listing = (workloads.OUT / "sweep-seed5.profile.txt").read_text()
    assert "tottime" in listing and "diskvar/functions.py" in listing


def _corrupt(text):
    # change the first number in the output by one part in 1e9
    match = re.search(r"\d+\.\d+", text)
    wrong = repr(float(match.group()) * (1 + 1e-9))
    return text[: match.start()] + wrong + text[match.end():]


def test_outputs_match_to_twelve_digits():
    reference = workloads.load_cli_cases()["disk second"][0]["stdout"]
    assert workloads.outputs_match(reference, reference)
    assert not workloads.outputs_match(reference, _corrupt(reference))
    assert not workloads.outputs_match(reference, reference.replace("radius", "radio"))


def test_planted_wrong_cli_output_is_counted_as_failed():
    cases = {command: [dict(case, stdout=_corrupt(case["stdout"])) for case in pool]
             for command, pool in workloads.load_cli_cases().items()}
    result = run.timed_run("cli", 1, 0.0, cases=cases)
    assert result["failed"] > 0


def test_planted_harness_violation_is_counted_as_failed(monkeypatch):
    real = harness.second_derivative_disk

    def shifted(data):
        disk = real(data)
        return Disk(disk.center + 10.0, disk.radius)

    monkeypatch.setattr(harness, "second_derivative_disk", shifted)
    result = run.timed_run("membership", 1, 0.0)
    assert result["failed"] == result["attempted"] > 0


def test_run_without_the_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_bench("--workload", "membership", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
