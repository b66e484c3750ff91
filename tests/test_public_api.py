"""The public surface: the package namespace, the modules' ``__all__`` lists
and the README's library example."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import diskvar
from diskvar.functions import FunctionExpr, Identity
from diskvar.moebius import Jet2

MODULES = ("bounds", "cli", "disks", "extremal", "functions", "harness", "moebius")

# names that restated another call or that only the proofs used
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


@pytest.mark.parametrize("module", ["diskvar", "diskvar.cli"])
def test_import_leaves_numpy_unloaded(module):
    """The closed forms and the CLI run without numpy; only sampling loads it."""
    proc = _fresh_python(f"import sys, {module}; print('numpy' in sys.modules)")
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
        "    print(code, 'numpy' in sys.modules)\n"
    )
    proc = _fresh_python(code)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["0 False"] * len(_CLOSED_FORM_COMMANDS)


SRC = Path(__file__).resolve().parents[1] / "src" / "diskvar"
# the functions that may import numpy when called: the scalar/lane dispatch,
# the sampler and the attainment grids, which never run for a scalar
LAZY_NUMPY = {("moebius", "_ops"), ("functions", "substream"), ("extremal", "_lanes")}


def _imports_numpy(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


def test_one_module_chooses_between_scalars_and_lanes():
    """Only ``moebius`` tells a batch from a scalar, and only the allowed
    functions import numpy lazily."""
    lazy = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert path.stem == "moebius" or "_is_batch" not in names, path.name
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lazy |= {(path.stem, func.name) for node in ast.walk(func) if _imports_numpy(node)}
    assert lazy <= LAZY_NUMPY
