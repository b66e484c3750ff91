"""One input contract for the public surface: a callable of a module's
``__all__`` that takes numbers answers any value in a numeric argument with a
result or a ``DomainError``, and raises no warning on the way.

``CONTRACT`` lists each such callable with a valid value for every argument,
which fixes its arity, and names its numeric arguments.  The test puts one
hostile value into one numeric argument and keeps the others valid, as
scalars or as three lanes each, so that lanes of different lengths meet too.
Every public name is either in the table or in ``NO_NUMBERS`` with the
reason it takes none; a new name in neither fails the test.

``OTHER_CONTRACT`` does the same for the arguments that take a record, a
tree, names or text, with values of the wrong type.
"""

import importlib
import inspect
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskvar.bounds import Branch, TableRow, branch_value
from diskvar.disks import dieudonne_disk, mercer_disk
from diskvar.extremal import make_extremal
from diskvar.functions import Constant, Identity, MobiusT, PrescribedData, Product, dieudonne_parametrize
from diskvar.harness import HarnessConfig
from diskvar.moebius import DegeneracyError, Disk, DomainError, Jet2

MODULES = ("bounds", "cli", "disks", "extremal", "functions", "harness", "moebius")

# the values each numeric argument receives: not a number, not finite, at the
# ends of the double range, signed zero, on and next to the unit circle, the
# numpy and mpmath number types, lanes (none, two) and sequences
HOSTILE = (
    None,
    math.nan,
    math.inf,
    -math.inf,
    1e308,
    1e-300,
    5e-324,
    -0.0,
    1.0,
    1.0 - 1e-16,
    np.array(0.25),
    np.float32(0.25),
    np.array([]),
    np.array([0.1, 0.2]),
    mp.mpf("0.25"),
    mp.mpc("0.25", "0.125"),
    [0.1, 0.2],
    (0.1, 0.2),
)

TREE = MobiusT(0.3, Product(Identity(), Identity()))
CFG = HarnessConfig(seed=3, samples=16)

# (module.name, a valid value for every argument by keyword, the numeric
# arguments); "params.z0" is the key z0 of the dict argument params
CONTRACT = [
    ("bounds.branch_value", {"branch": Branch.DEG1, "r": 0.5, "R": 0.25}, ("r", "R")),
    ("bounds.branch_value", {"branch": Branch.SZASZ, "r": 0.5}, ("r",)),
    ("bounds.theorem31_bound", {"r": 0.5, "R": 0.25}, ("r", "R")),
    ("bounds.szasz_bound", {"r": 0.5}, ("r",)),
    ("bounds.ruscheweyh_bound", {"n": 2, "r": 0.5, "R": 0.25}, ("n", "r", "R")),
    ("bounds.bound_comparison_table", {"r_grid": (0.1, 0.5), "R_grid": (0.25,)}, ("r_grid", "R_grid")),
    ("disks.schwarz_pick_disk", {"z0": 0.3, "delta0": 0.2j}, ("z0", "delta0")),
    ("disks.rogosinski_disk", {"z0": 0.3, "gprime0": 0.2j}, ("z0", "gprime0")),
    ("disks.dieudonne_disk", {"z0": 0.5, "w0": 0.2j}, ("z0", "w0")),
    ("disks.mercer_disk", {"z0": 0.5, "w0": 0.2j, "z": 0.3 - 0.1j}, ("z0", "w0", "z")),
    ("disks.second_order_dieudonne_disk", {"z0": 0.5, "w0": 0.2j, "delta1": 0.4}, ("z0", "w0", "delta1")),
    ("disks.peschl_pair", {"g": TREE, "z0": 0.3}, ("z0",)),
    (
        "extremal.make_extremal",
        {"kind": "second-boundary", "z0": 0.3, "delta0": 0.2j, "delta1": 0.1, "alpha": 0.5j},
        ("z0", "delta0", "delta1", "alpha"),
    ),
    ("extremal.make_extremal", {"kind": "dieudonne", "z0": 0.5, "w0": 0.2j, "alpha": 0.5j}, ("z0", "w0", "alpha")),
    (
        "extremal.make_extremal",
        {"kind": "sharp-deg2", "z0": 0.3, "delta0": 0.2j, "theta": 0.4},
        ("z0", "delta0", "theta"),
    ),
    (
        "extremal.verify_attainment",
        {"kind": "second-boundary", "params": {"z0": 0.3, "delta0": 0.2j, "delta1": 0.1, "alpha": 0.5j}, "tol": 1e-9},
        ("params.z0", "params.delta0", "params.delta1", "params.alpha", "tol"),
    ),
    (
        "extremal.verify_attainment",
        {"kind": "szasz", "params": {"z0": 0.3, "theta": 0.4}, "tol": 1e-9},
        ("params.z0", "params.theta"),
    ),
    ("functions.Constant", {"c": 0.5j}, ("c",)),
    ("functions.Rotation", {"theta": 0.4, "child": TREE}, ("theta",)),
    ("functions.MobiusT", {"a": 0.3, "child": TREE}, ("a",)),
    ("functions.Bracket", {"w": 0.3, "child": TREE}, ("w",)),
    ("functions.eval_jet", {"f": TREE, "z0": 0.3}, ("z0",)),
    ("functions.PrescribedData", {"z0": 0.3, "delta0": 0.2j, "delta1": 0.1}, ("z0", "delta0", "delta1")),
    ("functions.dieudonne_parametrize", {"z0": 0.5, "w0": 0.2j, "fstar": Constant(0.5)}, ("z0", "w0")),
    ("functions.random_schur_function", {"seed": 7, "index": 2}, ("seed", "index")),
    ("functions.random_blaschke_product", {"seed": 7, "index": 2, "degree": 3}, ("seed", "index", "degree")),
    ("functions.complex_to_pair", {"z": 0.5j}, ("z",)),
    ("harness.HarnessConfig", {"seed": 3, "samples": 16, "tol": 1e-8}, ("seed", "samples", "tol")),
    ("harness.run_tightness_search", {"cfg": CFG, "r": 0.5, "R": 0.25}, ("r", "R")),
    ("moebius.require_finite", {"z": 0.5j}, ("z",)),
    ("moebius.require_int", {"n": 3, "name": "n", "minimum": 1}, ("n", "minimum")),
    ("moebius.require_real", {"x": 0.5, "name": "x"}, ("x",)),
    ("moebius.unit_disk_point", {"z": 0.5j}, ("z",)),
    ("moebius.closed_disk_point", {"z": 0.5j}, ("z",)),
    ("moebius.unimodular_point", {"z": 1j}, ("z",)),
    ("moebius.Disk", {"center": 0.5j, "radius": 0.25}, ("center", "radius")),
    ("moebius.jet_scale", {"s": 0.5j, "a": Jet2(0.1j, 1.0, 0.5)}, ("s",)),
]

# the public names that take no number: what each takes instead
NO_NUMBERS = {
    "bounds.Branch": "an enum, looked up by its name",
    "bounds.TABLE_CSV_HEADER": "a string",
    "bounds.table_to_csv": "TableRow records",
    "cli.cli_main": "an argv list of strings",
    "cli.main": "nothing: it reads sys.argv",
    "disks.second_derivative_disk": "a PrescribedData record",
    "disks.max_attaining_alpha": "a PrescribedData record",
    "extremal.ExtremalKind": "an enum, looked up by its name",
    "functions.FunctionExpr": "nothing: the base class of the nodes",
    "functions.Identity": "nothing",
    "functions.Product": "two trees",
    "functions.Compose": "two trees",
    "functions.schur_parametrize": "a PrescribedData record and a tree",
    "functions.function_to_json": "a tree",
    "functions.function_from_json": "a JSON string",
    "harness.run_membership_suite": "a HarnessConfig record and family names",
    "harness.run_attainment_suite": "a HarnessConfig record and kind names",
    "harness.MEMBERSHIP_FAMILIES": "a tuple of names",
    "moebius.DomainError": "a message",
    "moebius.PoleError": "a message",
    "moebius.DegeneracyError": "a message",
    "moebius.jet_mul": "two Jet2 records",
    "moebius.jet_div": "two Jet2 records",
    "moebius.jet_compose": "two Jet2 records",
}

# the records a call returns: they hold what the call computed and check
# nothing, so any value is a result
RESULTS = (
    "bounds.BoundResult",
    "bounds.TableRow",
    "disks.SecondOrderDisk",
    "disks.DerivativePair",
    "extremal.AttainmentReport",
    "harness.HarnessReport",
    "moebius.Jet2",
)


# the values each argument that takes no number receives: none of the type
# it wants, a bare string where names are wanted, names of nothing, names
# that are not strings, a mapping with a key that is not a string, a tree
# and a record, text that is not UTF-8, not JSON or too deep for the decoder
OTHER_HOSTILE = (
    None,
    0,
    2.5,
    "second",
    "szasz",
    "",
    b"\xff",
    "1" * 5000,
    "[" * 100_000,
    [],
    [None],
    [["second"]],
    {1: 2},
    object(),
    TREE,
    CFG,
    TableRow(0.5, 0.25, 1.0, 1.0, 1.0, "deg1", True),
    np.array(["second"]),
)

DATA = PrescribedData(0.3, 0.2j, 0.1)

# (module.name, a valid value for every argument by keyword, the arguments
# that take no number)
OTHER_CONTRACT = [
    ("harness.run_membership_suite", {"cfg": CFG, "families": ("second",)}, ("cfg", "families")),
    ("harness.run_attainment_suite", {"cfg": CFG, "kinds": ("szasz",)}, ("cfg", "kinds")),
    ("harness.run_tightness_search", {"cfg": CFG, "r": 0.5, "R": 0.25}, ("cfg",)),
    ("bounds.table_to_csv", {"rows": []}, ("rows",)),
    ("disks.second_derivative_disk", {"data": DATA}, ("data",)),
    ("disks.max_attaining_alpha", {"data": DATA}, ("data",)),
    (
        "extremal.verify_attainment",
        {"kind": "szasz", "params": {"z0": 0.3, "theta": 0.4}, "tol": 1e-9},
        ("kind", "params"),
    ),
    ("functions.function_to_json", {"f": TREE}, ("f",)),
    ("functions.function_from_json", {"text": '{"node": "identity"}'}, ("text",)),
]


# the other refusals a callable documents: peschl_pair's D1 and D2 are
# undefined where |g(z0)| rounds to 1, as it does for TREE at 1 - 1e-16
DOCUMENTED = {"disks.peschl_pair": DegeneracyError}


def _public(qualified):
    module, name = qualified.split(".")
    return getattr(importlib.import_module(f"diskvar.{module}"), name)


def test_every_public_name_is_in_the_contract():
    public = {f"{module}.{name}" for module in MODULES for name in importlib.import_module(f"diskvar.{module}").__all__}
    listed = {name for name, _, _ in CONTRACT}
    assert public - listed - set(NO_NUMBERS) - set(RESULTS) == set()
    assert listed | set(NO_NUMBERS) | set(RESULTS) <= public
    # each result record is a NamedTuple, which stores its fields unchecked
    assert all(issubclass(_public(name), tuple) and _public(name)._fields for name in RESULTS)
    # each row gives every argument its callable requires, and no other
    for name, kwargs, numeric in CONTRACT + OTHER_CONTRACT:
        inspect.signature(_public(name)).bind(**kwargs)
        assert {arg.split(".")[0] for arg in numeric} <= set(kwargs)
    assert {name for name, _, _ in OTHER_CONTRACT} <= public


def _at(call, arg):
    """The dict of ``call`` that holds ``arg``, a keyword or a "dict.key"
    path, and its key there."""
    top, _, key = arg.partition(".")
    return (call[top], key) if key else (call, top)


@pytest.mark.parametrize("row", CONTRACT, ids=[f"{name}:{','.join(numeric)}" for name, _, numeric in CONTRACT])
@settings(max_examples=20, deadline=None, database=None)
@given(data=st.data())
def test_a_hostile_number_gives_a_result_or_a_domain_error(row, data):
    """Every hostile value in one numeric argument, the other numbers valid,
    as scalars or as three lanes each.  The examples are few, so hypothesis
    tries every argument in both forms."""
    name, kwargs, numeric = row
    arg = data.draw(st.sampled_from(numeric), "argument")
    lanes = data.draw(st.booleans(), "the other numbers as three lanes")
    refusals = (DomainError, DOCUMENTED.get(name, DomainError))
    for value in HOSTILE:
        call = {key: dict(v) if isinstance(v, dict) else v for key, v in kwargs.items()}
        for other in numeric:
            holder, key = _at(call, other)
            holder[key] = value if other == arg else np.array([holder[key]] * 3) if lanes else holder[key]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                _public(name)(**call)
            except refusals:
                pass
            except Exception as exc:
                raise AssertionError(f"{name} with {arg} = {value!r}: {exc!r}") from exc


@pytest.mark.parametrize("row", OTHER_CONTRACT, ids=[f"{name}:{','.join(args)}" for name, _, args in OTHER_CONTRACT])
def test_a_value_of_the_wrong_type_gives_a_result_or_a_domain_error(row):
    """Every value of ``OTHER_HOSTILE`` in each argument in turn, the others
    valid."""
    name, kwargs, args = row
    for arg in args:
        for value in OTHER_HOSTILE:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    _public(name)(**{**kwargs, arg: value})
                except DomainError:
                    pass
                except Exception as exc:
                    raise AssertionError(f"{name} with {arg} = {value!r:.60}: {exc!r}") from exc


def test_lanes_of_different_lengths_are_refused_where_they_meet():
    two, three = np.array([0.5, 0.6]), np.array([0.1, 0.2, 0.3])
    calls = [
        lambda: dieudonne_disk(two, three),
        lambda: mercer_disk(0.5, two * 0.2, three),
        lambda: branch_value(Branch.DEG1, two, three),
        lambda: Disk(two, three),
        lambda: PrescribedData(two, 0.1, three),
        lambda: make_extremal("second-boundary", z0=two, delta0=three, delta1=0.1, alpha=0.5),
        lambda: dieudonne_parametrize(two, three * 0.1, Constant(0.5)),
    ]
    for call in calls:
        with pytest.raises(DomainError, match=r"lane arguments must have one shape, got \(2,\) and \(3,\)"):
            call()
    # a batch of one lane goes with any, as a scalar does
    assert dieudonne_disk(np.array([0.5]), three).radius.shape == (3,)
