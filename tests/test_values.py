"""Value semantics shared by every record type of the package.

Each type is an immutable value: equal and hashed by its fields, never equal
to a tuple, printed as `Name(field=value, ...)`, frozen against assignment
and deletion, built by keyword, and restored equal by pickle and copy.  The
array holders of `quantum` differ only in `==` and `hash`, which go by
identity, and come back from pickle and copy with bit-identical arrays.
"""

import copy
import inspect
import math
import pickle

import numpy as np
import pytest

from optikit.core import CVec3, Mat2, RVec3
from optikit.emoptics import ETA0, EMConstants, InterfaceSpec, InterfaceSystem, PlaneWave
from optikit.errors import DomainError, UnphysicalBeam
from optikit.gaussian import BeamGeometry, QParameter
from optikit.quantum import InnerProduct, Operator, SingleMode, StateVector, make_single_mode
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
    system_composition,
)
from optikit.resonator import OracleResult, Resonator, StabilityVerdict, round_trip_matrix
from optikit.sysdesc import Document, parse

SPACE = FreeSpace(n=1.0, d=0.1)
COMPONENT = OpticalComponent(space=SPACE, iface=Spherical(radius=0.5), kind=InterfaceKind.REFLECTED)
VIOLATION = Violation(index=2, clause="0 < n", detail="n = -1.0")
SPACE_REPR = "FreeSpace(n=1.0, d=0.1)"
COMPONENT_REPR = (
    f"OpticalComponent(space={SPACE_REPR}, iface=Spherical(radius=0.5), "
    "kind=<InterfaceKind.REFLECTED: 'reflected'>)"
)
WAVE = PlaneWave(k=RVec3(0.0, 0.0, 2.0), omega=3.0, E=CVec3(1j, 0j, 0j), H=CVec3(0j, 2j, 0j))
WAVE_REPR = "PlaneWave(k=RVec3(x=0.0, y=0.0, z=2.0), omega=3.0, E=CVec3(x=1j, y=0j, z=0j), H=CVec3(x=0j, y=2j, z=0j))"
INTERFACE = InterfaceSpec(n1=1.0, n2=1.5, point=RVec3(0.0, 0.0, 0.0), normal=RVec3(0.0, 0.0, 1.0))
INTERFACE_REPR = "InterfaceSpec(n1=1.0, n2=1.5, point=RVec3(x=0.0, y=0.0, z=0.0), normal=RVec3(x=0.0, y=0.0, z=1.0))"

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
    (Document, dict(body=OpticalSystem((COMPONENT,), SPACE), written=("reflected",)), dict(written=(None,)),
     f"Document(body=OpticalSystem(components=({COMPONENT_REPR},), terminal={SPACE_REPR}), written=('reflected',))"),
    (Document, dict(body=Resonator(Plane(), (), SPACE, Spherical(2.0)), written=()),
     dict(body=Resonator(Plane(), (), SPACE, Plane())),
     f"Document(body=Resonator(left=Plane(), inner=(), space={SPACE_REPR}, right=Spherical(radius=2.0)), written=())"),
    (PlaneWave, dict(k=RVec3(0.0, 0.0, 2.0), omega=3.0, E=CVec3(1j, 0j, 0j), H=CVec3(0j, 2j, 0j)), dict(omega=-3.0),
     WAVE_REPR),
    (InterfaceSpec, dict(n1=1.0, n2=1.5, point=RVec3(0.0, 0.0, 0.0), normal=RVec3(0.0, 0.0, 1.0)), dict(n2=2.0),
     INTERFACE_REPR),
    # eta0 left at its default, then set
    (EMConstants, dict(k0=2.0), dict(k0=3.0), "EMConstants(k0=2.0, eta0=376.730313668)"),
    (EMConstants, dict(k0=2.0, eta0=1.0), dict(eta0=ETA0), "EMConstants(k0=2.0, eta0=1.0)"),
    (InterfaceSystem, dict(spec=INTERFACE, incident=WAVE, reflected=WAVE, transmitted=WAVE, consts=EMConstants(2.0)),
     dict(reflected=PlaneWave(RVec3(0.0, 0.0, -2.0), 3.0, CVec3(1j, 0j, 0j), CVec3(0j, 2j, 0j))),
     f"InterfaceSystem(spec={INTERFACE_REPR}, incident={WAVE_REPR}, reflected={WAVE_REPR}, "
     f"transmitted={WAVE_REPR}, consts=EMConstants(k0=2.0, eta0=376.730313668))"),
]

# declared constructor defaults; every other field is required
DEFAULTS = {ValidationReport: dict(warnings=()), EMConstants: dict(eta0=ETA0)}

by_type = pytest.mark.parametrize(
    "cls, fields, changed, text", CASES, ids=[case[0].__name__ for case in CASES]
)


def every_field(cls, fields):
    """fields with each field a row leaves out at its declared default, in field order."""
    return {name: fields[name] if name in fields else DEFAULTS[cls][name] for name in cls.__slots__}


@by_type
def test_equal_and_hashed_by_field(cls, fields, changed, text):
    value = cls(**fields)
    values = every_field(cls, fields)
    twin = cls(*values.values())  # positional and keyword construction agree, and so do the defaults
    assert value == twin and not value != twin
    assert hash(value) == hash(twin) == hash(tuple(values.values()))
    if changed:
        other = cls(**{**fields, **changed})
        assert value != other and not value == other


@by_type
def test_never_equals_its_tuple(cls, fields, changed, text):
    value, fields_tuple = cls(**fields), tuple(every_field(cls, fields).values())
    assert value != fields_tuple and fields_tuple != value
    assert not value == fields_tuple


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
    assert repr(back) == text


@by_type
def test_signature_lists_fields_in_order(cls, fields, changed, text):
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == list(cls.__slots__)
    # a row lists the fields in order, leaving out only trailing ones that have defaults
    assert list(fields) + [name for name in cls.__slots__[len(fields):] if name in DEFAULTS.get(cls, {})] \
        == list(cls.__slots__)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    defaults = {p.name: p.default for p in params if p.default is not p.empty}
    assert defaults == DEFAULTS.get(cls, {})
    assert cls.__init__.__module__ == cls.__module__


@by_type
def test_wrong_arguments_raise_type_error(cls, fields, changed, text):
    with pytest.raises(TypeError):
        cls(*every_field(cls, fields).values(), 0.0)  # one positional too many
    with pytest.raises(TypeError):
        cls(**fields, extra=0.0)
    if fields:  # the first field is required in every type
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\) missing .*'{next(iter(fields))}'$"):
            cls(**dict(list(fields.items())[1:]))


def field_bits(value):
    """Each field of an array holder, with arrays and operator bands as dtype, shape and bytes."""
    def bits(field):
        if isinstance(field, Operator):
            return field.dim, [(k, bits(band)) for k, band in field.bands.items()]
        if isinstance(field, np.ndarray):
            return field.dtype.str, field.shape, field.tobytes()
        return field
    return [bits(getattr(value, name)) for name in value.__slots__]


@pytest.mark.parametrize("make", [
    lambda: StateVector(amplitudes=[1, 0.5j, -2.0, 1e-300]),
    lambda: InnerProduct(),
    lambda: InnerProduct(weight=np.array([[2.0, 1j], [-1j, 3.0]])),
    lambda: make_single_mode(1.5, hbar=0.25, dim=5),
], ids=["StateVector", "InnerProduct", "InnerProduct-weight", "SingleMode"])
def test_array_holders_equal_only_themselves(make):
    value, twin = make(), make()
    assert value == value and not value != value
    assert value != twin and not value == twin and field_bits(value) == field_bits(twin)
    assert hash(value) == hash(value) == object.__hash__(value)
    name = value.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    for back in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(back) is type(value) and back != value
        assert field_bits(back) == field_bits(value)


def test_state_vector_stores_a_complex_array():
    state = StateVector([1, 2])
    assert state.amplitudes.dtype == complex and state.dim == 2
    assert repr(state) == "StateVector(amplitudes=array([1.+0.j, 2.+0.j]))"
    assert repr(InnerProduct()) == "InnerProduct(weight=None)"


class TestDocument:
    def test_kind_is_derived_from_the_body(self):
        system = Document(OpticalSystem((), SPACE), ())
        resonator = Document(Resonator(Plane(), (), SPACE, Plane()), ())
        assert (system.kind, resonator.kind) == ("system", "resonator")
        assert "kind" not in Document.__slots__
        with pytest.raises(AttributeError):
            system.kind = "resonator"


class TestCheckedSlot:
    """A system, a resonator and a parsed document keep their check in one slot
    outside their fields, `_check`, which their constructor sets to None and
    which no ==, hash, repr, copy or pickle reads."""

    @pytest.mark.parametrize("make, check", [
        (lambda: OpticalSystem((COMPONENT,), SPACE), lambda v: system_composition(v)),
        (lambda: Resonator(Spherical(1.0), (COMPONENT,), SPACE, Plane()), lambda v: round_trip_matrix(v)),
        (lambda: parse("[system]\nfreespace n=1.0 d=0.1\n"), lambda v: None),
    ], ids=["OpticalSystem", "Resonator", "Document"])
    def test_slot_is_outside_the_fields(self, make, check):
        fresh, value = make(), make()
        check(value)
        assert type(value).__slots__ == type(fresh).__slots__ and "_check" not in type(value).__slots__
        assert value._check is not None and (fresh._check is None) == (type(fresh) is not Document)
        assert value == fresh and hash(value) == hash(fresh) and repr(value) == repr(fresh)
        for back in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert back == value and back._check is None
        with pytest.raises(AttributeError):
            value._check = None
        assert type(value)(*(getattr(value, name) for name in value.__slots__))._check is None

    def test_list_components_keep_no_check(self):
        system = OpticalSystem([COMPONENT], SPACE)
        res = Resonator(Spherical(1.0), [COMPONENT], SPACE, Plane())
        system_composition(system)
        round_trip_matrix(res)
        assert system._check is None and res._check is None


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
