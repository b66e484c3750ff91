"""The benchmark's recorded CLI cases, run in-process.

``bench/cli_reference.json`` holds the 72 CLI calls of the benchmark's
``cli`` workload, each with the output it printed when recorded.  A case
passes when ``cli_main`` exits 0 and its output passes ``outputs_match`` from
``bench/workloads.py``, the check the workload applies to every call; so a
change that would fail the workload fails here first.
"""

import importlib.util
from pathlib import Path

import pytest

from diskvar.cli import cli_main

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_recorded_cli_case_matches(workloads, capsys):
    recorded = workloads.load_cli_cases()
    cases = [case for command in workloads.CLI_COMMANDS for case in recorded[command]]
    assert len(cases) == 72
    failed = []
    for case in cases:
        code = cli_main(case["argv"])
        out = capsys.readouterr().out
        if code != 0 or not workloads.outputs_match(case["stdout"], out):
            failed.append(" ".join(case["argv"]))
    assert failed == []
