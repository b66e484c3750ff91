"""The public surface: the package namespace, the modules' ``__all__`` lists
and the README's library example."""

import ast
import importlib
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diskvar
from diskvar.bounds import BoundResult, Branch
from diskvar.extremal import AttainmentReport, ExtremalKind, KindSpec
from diskvar.functions import (
    Bracket,
    Compose,
    Constant,
    FunctionExpr,
    Identity,
    MobiusT,
    PrescribedData,
    Product,
    Rotation,
)
from diskvar.harness import HarnessConfig, HarnessReport, _SchurTemplate
from diskvar.moebius import Disk, Jet2

MODULES = ("bounds", "cli", "disks", "extremal", "functions", "harness", "moebius")

# names that restated another call, or that only the proofs or the tests used
REMOVED = (
    "mobius_T_inverse",
    "disk_contains",
    "jet_add",
    "jet_sub",
    "hyperbolic_d1",
    "peschl_d2",
    "SecondOrderData",
    "ExtremalParams",
    "RandomFunctionConfig",
    "psi",
    "psi_argmax",
    "phi_cubic",
    "phi_cubic_critical",
    "phi_quadratic",
    "modulus_max_second_derivative",
    "hyperbolic_h2",
    "H2_DEGENERACY_THRESHOLD",
    "mobius_T",
    "hyperbolic_bracket",
    "evaluate",
    "pair_to_complex",
    "expr_from_obj",
    "disk_sample",
)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_namespace_is_the_library_example():
    assert sorted(diskvar.__all__) == sorted(
        [
            "PrescribedData",
            "eval_jet",
            "second_derivative_disk",
            "ExtremalKind",
            "make_extremal",
            "DomainError",
            "__version__",
        ]
    )


@pytest.mark.parametrize("module", ("diskvar",) + tuple(f"diskvar.{m}" for m in MODULES))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.__all__ lists missing {name}"


def test_removed_names_stay_removed():
    for module in MODULES:
        mod = importlib.import_module(f"diskvar.{module}")
        for name in REMOVED:
            assert not hasattr(mod, name), f"diskvar.{module}.{name}"
    assert not hasattr(Jet2, "constant") and not hasattr(Jet2, "variable")
    assert not hasattr(Disk, "contains")
    assert "__call__" not in vars(FunctionExpr)
    assert not callable(Identity())


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})


def _fresh_python(code):
    """Run ``code`` in a fresh interpreter with this checkout's diskvar."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)


# modules a closed-form command never needs: numpy only samples, the
# records define their methods without dataclasses, which loads inspect, and
# OpenSSL (_hashlib) is preloaded only by a parallel call, for its children
UNLOADED = ("numpy", "dataclasses", "inspect", "_hashlib")


@pytest.mark.parametrize("module", ["diskvar", "diskvar.cli"])
def test_import_leaves_numpy_unloaded(module):
    """The closed forms and the CLI run without numpy; only sampling loads it."""
    proc = _fresh_python(f"import sys, {module}; print([m for m in {UNLOADED!r} if m in sys.modules])")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_import_diskvar_leaves_json_unloaded():
    """Only a function tree's JSON round trip needs json, and it imports json
    itself; the CLI, which prints JSON, loads it."""
    proc = _fresh_python("import sys, diskvar; print('json' in sys.modules)")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


_CLOSED_FORM_COMMANDS = [
    ["disk", "second", "--z0", "0.3,0.1", "--delta0", "0.2,0", "--delta1", "0.3,0"],
    ["bound", "thm31", "--z0", "0.3,0.1", "--delta0=0.2,-0.4", "--emit-function"],
    ["bound", "table"],
    ["extremal", "verify", "--kind", "sharp-deg2", "--z0", "0.3,0.1", "--delta0=0.2,-0.4", "--emit-function"],
    ["extremal", "emit", "--kind", "szasz", "--z0", "0.5,0"],
    ["disk", "mercer", "--z0", "0.5,0", "--w0", "0.25,0", "--z", "0.8,0"],
    ["disk", "dieudonne2", "--z0", "0.5,0", "--w0", "0.25,0", "--delta1", "0.3,0"],
    ["bound", "table", "--csv"],
    ["bound", "szasz", "--r", "0.5", "--emit-function"],
]


def test_closed_form_commands_leave_numpy_unloaded():
    """Running the closed-form commands loads no numpy either: only the
    sampling suites and the attainment grids need it."""
    code = (
        "import contextlib, io, sys\n"
        "from diskvar.cli import cli_main\n"
        f"for argv in {_CLOSED_FORM_COMMANDS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli_main(argv)\n"
        f"    print(code, [m for m in {UNLOADED!r} if m in sys.modules])\n"
    )
    proc = _fresh_python(code)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["0 []"] * len(_CLOSED_FORM_COMMANDS)


@pytest.mark.skipif(
    not hasattr(os, "fork")
    or (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1) < 2,
    reason="a parallel call forks only with two usable cores",
)
def test_a_parallel_call_preloads_secrets_but_not_numpy_random():
    """The children inherit OpenSSL through secrets from the parent; numpy's
    random module is imported in the children alone.  The crossover is set
    down so that 1,000 samples fork."""
    code = (
        "import sys\n"
        "from diskvar import harness\n"
        "from diskvar.harness import HarnessConfig, run_membership_suite\n"
        "harness._MEMBERSHIP_PER_CHILD = 500\n"
        "loaded = lambda: [m in sys.modules for m in ('secrets', 'numpy.random')]\n"
        "print(loaded())\n"
        "run_membership_suite(HarnessConfig(samples=1000, parallel=True))\n"
        "print(loaded())\n"
    )
    proc = _fresh_python(code)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[False, False]\n[True, False]\n", "")


SRC = Path(__file__).resolve().parents[1] / "src" / "diskvar"
# the functions that may import numpy when called: the scalar/lane dispatch,
# the sampler and the attainment grids, which never run for a scalar
LAZY_NUMPY = {("moebius", "_ops"), ("functions", "substream"), ("extremal", "_lanes")}


def _imports(node, module="numpy"):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == module for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == module


def test_one_module_chooses_between_scalars_and_lanes():
    """Only ``moebius`` tells a batch from a scalar, only the allowed
    functions import numpy lazily, and no module imports dataclasses."""
    lazy = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(_imports(node, "dataclasses") for node in ast.walk(tree)), path.name
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert path.stem == "moebius" or "_is_batch" not in names, path.name
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lazy |= {(path.stem, func.name) for node in ast.walk(func) if _imports(node)}
    assert lazy <= LAZY_NUMPY


_SPEC = {"kind": ExtremalKind.SZASZ, "data": (), "free": (), "build": None, "target": None, "probe": "f2", "grid": None}

# every record class: (class, every field by keyword, one field changed, repr)
RECORDS = [
    (Identity, {}, None, "Identity()"),
    (Constant, {"c": 0.5j}, {"c": 0.25j}, "Constant(c=0.5j)"),
    (Rotation, {"theta": 0.25, "child": Identity()}, {"theta": 0.5}, "Rotation(theta=0.25, child=Identity())"),
    (MobiusT, {"a": 0.5, "child": Identity()}, {"a": 0.25}, "MobiusT(a=(0.5+0j), child=Identity())"),
    (
        Product,
        {"left": Identity(), "right": Constant(c=-0.5)},
        {"left": Constant(c=0.5)},
        "Product(left=Identity(), right=Constant(c=(-0.5+0j)))",
    ),
    (
        Compose,
        {"outer": Bracket(w=-0.25j, child=Identity()), "inner": Identity()},
        {"inner": Constant(c=0j)},
        "Compose(outer=Bracket(w=(-0-0.25j), child=Identity()), inner=Identity())",
    ),
    (Bracket, {"w": 0.1 + 0.2j, "child": Identity()}, {"w": 0.2j}, "Bracket(w=(0.1+0.2j), child=Identity())"),
    (
        PrescribedData,
        {"z0": 0.3, "delta0": 0.2j, "delta1": 1},
        {"delta1": 0.5},
        "PrescribedData(z0=(0.3+0j), delta0=0.2j, delta1=(1+0j))",
    ),
    (Disk, {"center": 1j, "radius": 2}, {"radius": 3.0}, "Disk(center=1j, radius=2.0)"),
    (
        BoundResult,
        {"value": 1.5, "branch": Branch.DEG1},
        {"branch": Branch.DEG2},
        "BoundResult(value=1.5, branch=<Branch.DEG1: 'deg1'>)",
    ),
    (
        KindSpec,
        {**_SPEC, "branches": (Branch.SZASZ,), "params": None},
        {"probe": "f1"},
        "KindSpec(kind=<ExtremalKind.SZASZ: 'szasz'>, data=(), free=(), build=None, target=None, probe='f2',"
        " grid=None, branches=(<Branch.SZASZ: 'szasz'>,), params=None)",
    ),
    (
        AttainmentReport,
        {
            "kind": ExtremalKind.SZASZ,
            "value": 0j,
            "first": 1j,
            "second": 2 + 0j,
            "target": "bound 2.0",
            "distance": 0.0,
            "tol": 1e-8,
            "passed": True,
        },
        {"passed": False},
        "AttainmentReport(kind=<ExtremalKind.SZASZ: 'szasz'>, value=0j, first=1j, second=(2+0j),"
        " target='bound 2.0', distance=0.0, tol=1e-08, passed=True)",
    ),
    (
        HarnessConfig,
        {"seed": 7, "samples": 3, "tol": 1e-6, "parallel": True},
        {"seed": 8},
        "HarnessConfig(seed=7, samples=3, tol=1e-06, parallel=True)",
    ),
    (
        HarnessReport,
        {"suite": "tightness", "samples": 3, "violations": 0, "worst_margin": 0.5, "wall_time": 0.25, "details": None},
        {"violations": 1},
        "HarnessReport(suite='tightness', samples=3, violations=0, worst_margin=0.5, wall_time=0.25, details=None)",
    ),
]


@pytest.mark.parametrize("cls, kwargs, change, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_keep_their_contract(cls, kwargs, change, text):
    """Records compare and hash by class and fields, print as Name(field=value,
    ...), refuse assignment and deletion, and survive a pickle round trip:
    the pool pickles its HarnessConfig into every worker."""
    record = cls(**kwargs)
    assert repr(record) == text
    assert record == cls(**kwargs) and hash(record) == hash(cls(**kwargs))
    assert hash(record) == hash(tuple(getattr(record, name) for name in kwargs))
    if change is not None:
        assert record != cls(**{**kwargs, **change})
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    copy = pickle.loads(pickle.dumps(record))
    assert (type(copy), copy, repr(copy)) == (cls, record, text)


def test_records_keep_their_defaults_and_classes():
    assert HarnessConfig() == HarnessConfig(seed=42, samples=10000, tol=1e-8, parallel=False)
    report = HarnessReport(suite="tightness", samples=3, violations=0, worst_margin=None, wall_time=0.0)
    assert report.details is None
    spec = KindSpec(**_SPEC)
    assert (spec.branches, spec.params) == ((), None)
    # equal fields in another class are not equal
    assert MobiusT(a=0.5, child=Identity()) != Bracket(w=0.5, child=Identity())


def test_schur_template_nodes_equal_only_themselves():
    params = {
        "degree": np.array([2]),
        "k": np.array([0.5j]),
        "zeros": np.array([[0.5], [0.25j], [0.0], [0.0]]),
        "theta": np.array([1.0]),
        "scaled": np.array([True]),
        "s": np.array([0.5]),
        "wrapped": np.array([False]),
        "c": np.array([0.25]),
    }
    node = _SchurTemplate(params)
    assert node == node and node != _SchurTemplate(params)
    assert hash(node) == object.__hash__(node)
    text = (
        "_SchurTemplate(degree=array([2]), k=array([0.+0.5j]), zeros=array([[0.5+0.j  ],\n"
        "       [0. +0.25j],\n       [0. +0.j  ],\n       [0. +0.j  ]]), theta=array([1.]), "
        "s=array([0.5+0.j]), c=array([0.+0.j]))"
    )
    assert repr(node) == text
    for name in _SchurTemplate.__annotations__:
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert repr(pickle.loads(pickle.dumps(node))) == text
