"""Executable, property-tested numerics for ray, electromagnetic, and quantum
optics: ray-transfer matrices, resonator stability, Gaussian-beam ABCD
propagation, plane-wave interface checks, and a truncated single-mode field.

Public names are reached through their modules, as `optikit.rayoptics.FreeSpace`.
`import optikit` loads no submodule, so that a process pays only for the modules
it uses: each loads on first use, as `optikit.quantum` or `from optikit import
quantum`.  numpy loads with the `emoptics` kernel and with arrays: a `quantum` mode past
`LIST_DIM`, `.matrix`, the eigensolver, `Operator(matrix)`, `StateVector` and `InnerProduct`.
"""

import importlib

__version__ = "0.1.0"

_MODULES = frozenset({"cli", "core", "emoptics", "errors", "gaussian", "quantum", "rayoptics", "resonator", "sysdesc"})


def __getattr__(name):
    # PEP 562: runs only for names not yet bound; importing the submodule
    # binds it here, so later lookups skip this function
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
