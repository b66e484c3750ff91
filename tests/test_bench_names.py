"""The benchmark's tracer patches names that are bound, and they count.

``bench/tracing.py`` replaces functions through ``owner.__dict__[attr]``, so a
module that stops binding one of those names breaks the traced benchmark runs
although nothing in the package calls it.  This loads the tracer as it is and
checks each name it will patch.  A name can also stay bound and go uncalled,
when the package calls the function by another route; so a traced call of
each harness workload must count every layer it is meant to exercise.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_bound(tracing):
    from diskvar import harness

    patched = [(owner, attr) for owner, attr, _ in tracing._TARGETS]
    patched += [(harness, attr) for attr in tracing._CHUNKS + ("_map_chunks", "_chunk_ranges")]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in patched if not callable(vars(owner).get(attr))]
    assert missing == []


def _membership_call(harness):
    harness.run_membership_suite(harness.HarnessConfig(seed=3, samples=250))


def _sweep_call(harness):
    # as bench/workloads.py's sweep call: every attainment row, then a tightness search
    harness.run_attainment_suite(harness.HarnessConfig())
    harness.run_tightness_search(harness.HarnessConfig(seed=3, samples=500), 0.3, 0.5)


@pytest.mark.parametrize("call", [_membership_call, _sweep_call], ids=["membership", "sweep"])
def test_a_traced_call_counts_every_layer_it_exercises(tracing, call):
    from diskvar import harness

    tracer = tracing.Tracer()
    with tracer.installed():
        call(harness)
    metrics = tracer.layer_metrics()
    layers = (
        "functions.jet.node_evals",
        "moebius.jet_arith.calls",
        "moebius.validate.calls",
        "functions.tree_build.calls",
        "disks.calls",
    )
    assert {name: metrics[name] for name in layers if not metrics[name] > 0} == {}
