"""Exact variability regions and sharp second-derivative bounds for analytic
self-maps of the unit disk, with the extremal functions that attain them and
a randomized verification harness.

The package namespace holds the names of the library example in the README;
everything else is imported from its submodule (``diskvar.bounds``,
``diskvar.disks``, ``diskvar.harness``, ...).
"""

from .disks import second_derivative_disk
from .extremal import ExtremalKind, make_extremal
from .functions import PrescribedData, eval_jet
from .moebius import DomainError

__version__ = "1.0.0"

__all__ = [
    "PrescribedData",
    "eval_jet",
    "second_derivative_disk",
    "ExtremalKind",
    "make_extremal",
    "DomainError",
    "__version__",
]
