"""What checks each closed-form region, region by region.

Each region is a row of the ``diskvar disk`` parser.  COVERAGE states, for
each of them, the membership family that samples it, the extremal kinds that
land on its boundary and the automorphism properties that move it; an empty
cell is a gap.  The tests hold every column to the code, so a region, a
membership family, a disk kind or an automorphism property that comes or
goes without a change here fails.
"""

import argparse
import contextlib
import importlib
import io
import json

import pytest

from diskvar import cli, disks, harness
from diskvar.extremal import KINDS, ExtremalKind
from diskvar.harness import MEMBERSHIP_FAMILIES, HarnessConfig

# region: (membership family, extremal kinds, automorphism tests in
# tests/test_automorphisms.py)
COVERAGE = {
    "schwarz-pick": (
        None,
        ("schwarz-pick",),
        ("test_the_schwarz_pick_disk_under_pre_composition", "test_the_schwarz_pick_disk_under_post_composition"),
    ),
    "rogosinski": (None, (), ("test_the_rogosinski_disk_turns_with_the_rotation",)),
    "mercer": ("mercer", (), ("test_the_mercer_disk_turns_with_the_rotation",)),
    "dieudonne": ("dieudonne", ("dieudonne",), ("test_the_dieudonne_disk_is_rotation_invariant",)),
    "second": (
        "second",
        ("second-degenerate", "second-boundary"),
        (
            "test_the_second_derivative_disk_under_pre_composition",
            "test_the_second_derivative_disk_under_post_composition",
        ),
    ),
    "dieudonne2": (
        None,
        ("dieudonne2-degenerate", "dieudonne2-boundary"),
        ("test_the_second_order_dieudonne_disk_turns_with_the_rotation",),
    ),
}

# one value for every data flag of the regions, with |w0| < |z0|
DATA = {"z0": 0.3 + 0.2j, "delta0": -0.1 + 0.4j, "delta1": 0.5 + 0.3j, "w0": 0.1 - 0.05j, "z": -0.4 + 0.3j}


def _subcommands(parser):
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _regions():
    """The ``disk`` subparsers, by region."""
    return _subcommands(_subcommands(cli._parser())["disk"])


def _disk_command(region):
    """The region's disk at DATA, as ``diskvar disk`` prints it."""
    names = _regions()[region].get_default("data")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.cli_main(["disk", region, *(f"--{n}={DATA[n].real},{DATA[n].imag}" for n in names)]) == 0
    return json.loads(out.getvalue())


def _closed_forms_called(monkeypatch, module, run):
    """The closed forms of ``diskvar.disks`` that ``run()`` calls through
    the names ``module`` binds."""
    called = set()

    def recording(name, fn):
        def record(*args):
            called.add(name)
            return fn(*args)

        return record

    with monkeypatch.context() as patch:
        for name in disks.__all__:
            if name.endswith("_disk") and name in vars(module):
                patch.setattr(module, name, recording(name, getattr(module, name)))
        run()
    return called


def test_every_disk_command_is_a_stated_region():
    assert list(_regions()) == list(COVERAGE)


def test_the_stated_families_are_the_membership_families():
    stated = [family for family, _, _ in COVERAGE.values() if family is not None]
    assert sorted(stated) == sorted(MEMBERSHIP_FAMILIES)


@pytest.mark.parametrize("region", [region for region, row in COVERAGE.items() if row[0] is not None])
def test_each_family_samples_its_region(region, monkeypatch):
    family = COVERAGE[region][0]
    cfg = HarnessConfig(samples=4)
    sampled = _closed_forms_called(monkeypatch, harness, lambda: harness._membership_chunk(cfg, (family,), (0, 4)))
    printed = _closed_forms_called(monkeypatch, cli, lambda: _disk_command(region))
    assert sampled == printed and len(printed) == 1


def test_the_stated_kinds_are_the_disk_kinds():
    stated = [kind for _, kinds, _ in COVERAGE.values() for kind in kinds]
    assert sorted(stated) == sorted(spec.kind.value for spec in KINDS.values() if not spec.branches)


@pytest.mark.parametrize("region,kind", [(region, kind) for region, row in COVERAGE.items() for kind in row[1]])
def test_each_disk_kind_targets_its_region(region, kind):
    spec = KINDS[ExtremalKind(kind)]
    target = spec.target(**{name: DATA[name] for name, _ in spec.data})
    doc = _disk_command(region)
    assert (complex(*doc["center"]), doc["radius"]) == (target.center, target.radius)


def test_the_stated_automorphism_tests_are_those_of_their_module():
    module = importlib.import_module("test_automorphisms")
    stated = [name for _, _, names in COVERAGE.values() for name in names]
    assert sorted(stated) == sorted(name for name in vars(module) if name.startswith("test_"))


def test_the_families_help_names_the_membership_families():
    parser = _subcommands(_subcommands(cli._parser())["verify"])["membership"]
    (action,) = (a for a in parser._actions if a.dest == "families")
    assert action.help == "comma-separated subset of " + ",".join(MEMBERSHIP_FAMILIES)
