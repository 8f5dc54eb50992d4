"""Executable, property-tested numerics for ray, electromagnetic, and quantum
optics: ray-transfer matrices, resonator stability, Gaussian-beam ABCD
propagation, plane-wave interface checks, and a truncated single-mode field.

`import optikit` does not import numpy: the numpy modules `emoptics` and
`quantum` load on first use, as `optikit.quantum` or `from optikit import quantum`.
"""

import importlib

from . import core, errors, gaussian, rayoptics, resonator, sysdesc
from .core import CVec3, Mat2, RVec3, ccross, coplanar, mat2_apply, mat2_mul, mobius, sylvester_power
from .errors import OptikitError
from .gaussian import FLAT, BeamGeometry, QParameter, beam_at, geometry_from_q, propagate_q, q_from_geometry
from .rayoptics import (
    FreeSpace,
    InterfaceKind,
    OpticalComponent,
    OpticalSystem,
    Plane,
    RayState,
    Spherical,
    system_composition,
    trace_ray,
    validate_system,
)
from .resonator import Resonator, fp_resonator, ray_bound_oracle, stability, unfold_resonator
from .sysdesc import Document, ParseError, parse, serialize

__version__ = "0.1.0"

_LAZY_MODULES = frozenset({"emoptics", "quantum"})


def __getattr__(name):
    # PEP 562: runs only for names not yet bound; importing the submodule
    # binds it here, so later lookups skip this function
    if name in _LAZY_MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
