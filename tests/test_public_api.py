"""The public surface: the package namespace, the modules' ``__all__`` lists
and the README's library example."""

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


@pytest.mark.parametrize("module", ["diskvar", "diskvar.cli"])
def test_import_leaves_numpy_unloaded(module):
    """The closed forms and the CLI run without numpy; only sampling loads it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"import sys, {module}; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
