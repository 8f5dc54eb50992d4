"""Executable, property-tested numerics for ray, electromagnetic, and quantum
optics: ray-transfer matrices, resonator stability, Gaussian-beam ABCD
propagation, plane-wave interface checks, and a truncated single-mode field.

Public names are reached through their modules, as `optikit.rayoptics.FreeSpace`.
`import optikit` loads the ray-level modules but not numpy: the numpy modules
`emoptics` and `quantum` load on first use, as `optikit.quantum` or
`from optikit import quantum`.
"""

import importlib

from . import core, errors, gaussian, rayoptics, resonator, sysdesc

__version__ = "0.1.0"

_LAZY_MODULES = frozenset({"emoptics", "quantum"})


def __getattr__(name):
    # PEP 562: runs only for names not yet bound; importing the submodule
    # binds it here, so later lookups skip this function
    if name in _LAZY_MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
