"""The names the benchmark's tracer patches stay bound where it looks for them.

``bench/tracing.py`` replaces functions through ``owner.__dict__[attr]``, so a
module that stops binding one of those names breaks the traced benchmark runs
although nothing in the package calls it.  This loads the tracer as it is and
checks each name it will patch.
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
