"""Exact torsion-growth workbench for cyclic covers of Heegaard manifolds.

The public names below are resolved on first use (PEP 562): importing the
package loads none of its submodules, so a command line that only needs
`mahler` never loads `walks` or `homology`.  `from torsionlab import X`,
`torsionlab.X` and `from torsionlab import *` work as for eager imports.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_PUBLIC = {
    "CycElem": "ringcore",
    "LaurentPoly": "ringcore",
    "FormMatrix": "hermitian",
    "SurfaceModel": "hermitian",
    "transvection": "hermitian",
    "mahler_measure": "mahler",
    "kronecker_zero_test": "mahler",
    "cover_homology": "homology",
    "growth_scan": "homology",
    "heegaard_homology": "homology",
    "smith_normal_form": "homology",
    "WalkConfig": "walks",
    "run_walk": "walks",
}

__all__ = [*_PUBLIC, "__version__"]


def __getattr__(name):
    if name not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{_PUBLIC[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_PUBLIC})
