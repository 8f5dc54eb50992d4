"""Value semantics shared by every ray-path type.

Each type is an immutable value: equal and hashed by its fields, never equal
to a tuple, printed as `Name(field=value, ...)`, frozen against assignment
and deletion, built by keyword, and restored equal by pickle and copy.
"""

import copy
import math
import pickle

import pytest

from optikit.core import CVec3, Mat2, RVec3
from optikit.errors import DomainError, UnphysicalBeam
from optikit.gaussian import BeamGeometry, QParameter
from optikit.rayoptics import (
    FreeSpace,
    InterfaceKind,
    OpticalComponent,
    OpticalSystem,
    Plane,
    RayState,
    RayTrace,
    Spherical,
    ValidationReport,
    Violation,
)
from optikit.resonator import OracleResult, Resonator, StabilityVerdict
from optikit.sysdesc import Document, FreespaceDirective, InterfaceDirective

SPACE = FreeSpace(n=1.0, d=0.1)
COMPONENT = OpticalComponent(space=SPACE, iface=Spherical(radius=0.5), kind=InterfaceKind.REFLECTED)
VIOLATION = Violation(index=2, clause="0 < n", detail="n = -1.0")
SPACE_REPR = "FreeSpace(n=1.0, d=0.1)"
COMPONENT_REPR = (
    f"OpticalComponent(space={SPACE_REPR}, iface=Spherical(radius=0.5), "
    "kind=<InterfaceKind.REFLECTED: 'reflected'>)"
)

# (type, keyword fields, one field changed, exact repr)
CASES = [
    (Mat2, dict(a11=1.0, a12=2.0, a21=3.0, a22=4.0), dict(a22=-4.0),
     "Mat2(a11=1.0, a12=2.0, a21=3.0, a22=4.0)"),
    (RVec3, dict(x=1.0, y=-0.0, z=1e-300), dict(z=2.0), "RVec3(x=1.0, y=-0.0, z=1e-300)"),
    (CVec3, dict(x=1j, y=2 + 0j, z=0j), dict(x=2j), "CVec3(x=1j, y=(2+0j), z=0j)"),
    (FreeSpace, dict(n=1.0, d=0.1), dict(d=0.2), SPACE_REPR),
    (Plane, dict(), dict(), "Plane()"),
    (Spherical, dict(radius=-2.5), dict(radius=2.5), "Spherical(radius=-2.5)"),
    (OpticalComponent, dict(space=SPACE, iface=Spherical(radius=0.5), kind=InterfaceKind.REFLECTED),
     dict(kind=InterfaceKind.TRANSMITTED), COMPONENT_REPR),
    (OpticalSystem, dict(components=(COMPONENT,), terminal=FreeSpace(n=1.5, d=0.0)), dict(components=()),
     f"OpticalSystem(components=({COMPONENT_REPR},), terminal=FreeSpace(n=1.5, d=0.0))"),
    (RayState, dict(y=1e-3, theta=0.0), dict(theta=1e-3), "RayState(y=0.001, theta=0.0)"),
    (RayTrace, dict(states=(RayState(0.0, 1.0), RayState(1.0, 1.0))), dict(states=()),
     "RayTrace(states=(RayState(y=0.0, theta=1.0), RayState(y=1.0, theta=1.0)))"),
    (Violation, dict(index=2, clause="0 < n", detail="n = -1.0"), dict(index="left mirror"),
     "Violation(index=2, clause='0 < n', detail='n = -1.0')"),
    (ValidationReport, dict(violations=(VIOLATION,), warnings=()), dict(violations=()),
     "ValidationReport(violations=(Violation(index=2, clause='0 < n', detail='n = -1.0'),), warnings=())"),
    (QParameter, dict(q=1 + 2j, wavelength=1e-6), dict(q=1j), "QParameter(q=(1+2j), wavelength=1e-06)"),
    (BeamGeometry, dict(R=math.inf, w=1e-3, w0=1e-3, zR=3.0, z=0.0), dict(z=1.0),
     "BeamGeometry(R=inf, w=0.001, w0=0.001, zR=3.0, z=0.0)"),
    (Resonator, dict(left=Spherical(1.0), inner=(), space=FreeSpace(1.0, 0.5), right=Plane()),
     dict(right=Spherical(1.0)),
     "Resonator(left=Spherical(radius=1.0), inner=(), space=FreeSpace(n=1.0, d=0.5), right=Plane())"),
    (StabilityVerdict, dict(det=1.0, half_trace=0.5, stable=True, marginal=False), dict(stable=False),
     "StabilityVerdict(det=1.0, half_trace=0.5, stable=True, marginal=False)"),
    (OracleResult, dict(max_y=1e-3, max_theta=2e-3, diverged=False), dict(diverged=True),
     "OracleResult(max_y=0.001, max_theta=0.002, diverged=False)"),
    (FreespaceDirective, dict(n=1.0, d=0.5, line=3, column=1), dict(n=2.0),
     "FreespaceDirective(n=1.0, d=0.5, line=3, column=1)"),
    (InterfaceDirective, dict(shape="spherical", radius=2.0, kind="reflected", line=4, column=2),
     dict(kind=None),
     "InterfaceDirective(shape='spherical', radius=2.0, kind='reflected', line=4, column=2)"),
    (Document, dict(kind="system", items=(FreespaceDirective(1.0, 0.5),)), dict(kind="resonator"),
     "Document(kind='system', items=(FreespaceDirective(n=1.0, d=0.5, line=0, column=0),))"),
]

# fields left out of == and hash, as positions into the source
UNCOMPARED = {FreespaceDirective: ("line", "column"), InterfaceDirective: ("line", "column")}

by_type = pytest.mark.parametrize(
    "cls, fields, changed, text", CASES, ids=[case[0].__name__ for case in CASES]
)


def compared(cls, fields):
    return tuple(v for k, v in fields.items() if k not in UNCOMPARED.get(cls, ()))


@by_type
def test_equal_and_hashed_by_field(cls, fields, changed, text):
    value = cls(**fields)
    twin = cls(*fields.values())  # positional and keyword construction agree
    assert value == twin and not value != twin
    assert hash(value) == hash(twin) == hash(compared(cls, fields))
    if changed:
        other = cls(**{**fields, **changed})
        assert value != other and not value == other


@by_type
def test_never_equals_its_tuple(cls, fields, changed, text):
    value, fields_tuple = cls(**fields), tuple(fields.values())
    assert value != fields_tuple and fields_tuple != value
    assert not value == fields_tuple
    assert value != compared(cls, fields)


@by_type
def test_repr(cls, fields, changed, text):
    assert repr(cls(**fields)) == text


@by_type
def test_frozen(cls, fields, changed, text):
    value = cls(**fields)
    name = next(iter(fields), "extra")
    with pytest.raises(AttributeError):
        setattr(value, name, 0.0)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert repr(value) == text


@by_type
@pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal(cls, fields, changed, text, round_trip):
    value = cls(**fields)
    back = round_trip(value)
    assert type(back) is cls
    assert back == value and hash(back) == hash(value)
    assert repr(back) == text  # uncompared fields survive too


class TestDirectives:
    def test_defaults(self):
        assert InterfaceDirective("plane") == InterfaceDirective("plane", None, None, 0, 0)
        assert repr(InterfaceDirective("plane")) == (
            "InterfaceDirective(shape='plane', radius=None, kind=None, line=0, column=0)"
        )
        assert repr(FreespaceDirective(1.0, 0.5)) == "FreespaceDirective(n=1.0, d=0.5, line=0, column=0)"

    def test_position_is_not_compared(self):
        a, b = FreespaceDirective(1.0, 0.5, 3, 1), FreespaceDirective(1.0, 0.5, 9, 7)
        assert a == b and hash(a) == hash(b)
        a, b = InterfaceDirective("spherical", 2.0, None, 4, 2), InterfaceDirective("spherical", 2.0)
        assert a == b and hash(a) == hash(b)
        assert Document("system", (a,)) == Document("system", (b,))


class TestQParameterValidates:
    @pytest.mark.parametrize(
        "q, wavelength, error",
        [
            (1j, 0.0, DomainError),
            (1j, -1e-6, DomainError),
            (1j, math.inf, DomainError),
            (1j, math.nan, DomainError),
            (complex(math.nan, 1.0), 1e-6, DomainError),
            (complex(0.0, math.inf), 1e-6, DomainError),
            (1 + 0j, 1e-6, UnphysicalBeam),
            (complex(0.0, -1.0), 1e-6, UnphysicalBeam),
        ],
    )
    def test_rejects_at_construction(self, q, wavelength, error):
        with pytest.raises(error):
            QParameter(q=q, wavelength=wavelength)
