import cmath
import math
import random
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    EDGE_FLOATS,
    EDGE_INTS,
    bits,
    exact_mobius,
    exact_power,
    half_trace,
    mat_close,
    mat_pow_iterative,
    outcome,
    quotient_close,
    random_unimodular,
    read_real,
    replace,
    vec3_add,
    vec3_cross,
    vec3_dot,
    vec3_norm,
    vec3_scale,
    vec3_sub,
)
from optikit.core import (
    CVec3,
    IDENTITY2,
    Mat2,
    RVec3,
    coplanar,
    mat2_apply,
    mat2_mul,
    mobius,
    sylvester_power,
)
from optikit.emoptics import (
    continuity_coefficients,
    fresnel_standard,
    max_boundary_residual,
    oblique_incidence_fields,
    snell_angle,
)
from optikit.errors import DomainError, OptikitError, SingularTransform
from optikit.gaussian import QParameter, beam_at, q_from_geometry
from optikit.quantum import LIST_DIM, make_single_mode
from optikit.rayoptics import FreeSpace, OpticalSystem, RayState, trace_ray
from optikit.resonator import fp_resonator, ray_bound_oracle, stability_from_matrix

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
matrices = st.builds(Mat2, finite, finite, finite, finite)
# every real a caller can pass: edge floats, ints past the double range, inf and NaN
EDGE_REALS = st.sampled_from(EDGE_FLOATS + EDGE_INTS + [math.inf, -math.inf, math.nan]) | st.floats() | st.integers(-3, 3)


class TestMat2:
    def test_identity_absorbs(self):
        m = Mat2(1.0, 2.5, -0.5, 3.0)
        assert mat2_mul(IDENTITY2, m) == m
        assert mat2_mul(m, IDENTITY2) == m

    def test_translation_additivity(self):
        t1 = Mat2(1.0, 0.7, 0.0, 1.0)
        t2 = Mat2(1.0, 1.3, 0.0, 1.0)
        assert mat2_mul(t1, t2) == Mat2(1.0, 2.0, 0.0, 1.0)

    def test_quarter_turn_squared(self):
        rot = Mat2(0.0, 1.0, -1.0, 0.0)
        assert mat2_mul(rot, rot) == Mat2(-1.0, 0.0, 0.0, -1.0)

    def test_apply_identity(self):
        assert mat2_apply(IDENTITY2, (0.3, -0.1)) == (0.3, -0.1)

    def test_apply_hand_values(self):
        assert mat2_apply(Mat2(1.0, 2.0, 0.0, 1.0), (1.0, 0.1)) == (1.2, 0.1)
        assert mat2_apply(Mat2(1.0, 0.0, -2.0, 1.0), (1.0, 0.0)) == (1.0, -2.0)

    def test_det_multiplicative_1000_random(self):
        rng = random.Random(101)
        for _ in range(1000):
            a = Mat2(*(rng.uniform(-10, 10) for _ in range(4)))
            b = Mat2(*(rng.uniform(-10, 10) for _ in range(4)))
            p = mat2_mul(a, b)
            # scale against the pre-cancellation products, not the det itself
            scale = max(1.0, abs(p.a11 * p.a22) + abs(p.a12 * p.a21))
            assert abs(p.det() - a.det() * b.det()) <= 1e-12 * scale

    @given(a=matrices, b=matrices)
    def test_det_multiplicative_property(self, a, b):
        p = mat2_mul(a, b)
        scale = max(1.0, abs(p.a11 * p.a22) + abs(p.a12 * p.a21))
        assert abs(p.det() - a.det() * b.det()) <= 1e-12 * scale

    def test_int_past_the_double_range_reads_as_infinity(self):
        # each raised OverflowError; an entry of 10**400 now gives what inf gives
        big, inf = Mat2(10**400, 0, 0, 1), Mat2(math.inf, 0, 0, 1)
        assert bits(mat2_mul(big, IDENTITY2)) == bits(mat2_mul(inf, IDENTITY2)) == bits(Mat2(math.inf, math.nan, 0.0, 1.0))
        assert bits(mat2_apply(big, (1.0, 0.0))) == bits(mat2_apply(inf, (1.0, 0.0))) == bits((math.inf, 0.0))
        assert bits(mat2_apply(IDENTITY2, (-(10**400), 0))) == bits(mat2_apply(IDENTITY2, (-math.inf, 0.0)))

    @settings(max_examples=300, deadline=None)
    @given(a=st.lists(EDGE_REALS, min_size=4, max_size=4), b=st.lists(EDGE_REALS, min_size=4, max_size=4))
    def test_edge_entries_read_as_their_floats(self, a, b):
        # a result, never an OverflowError: the products of the entries read
        # as floats, so that float entries keep their bits
        (a11, a12, a21, a22), (b11, b12, b21, b22) = map(read_real, a), map(read_real, b)
        assert bits(mat2_mul(Mat2(*a), Mat2(*b))) == bits(
            Mat2(a11 * b11 + a12 * b21, a11 * b12 + a12 * b22, a21 * b11 + a22 * b21, a21 * b12 + a22 * b22))
        assert bits(mat2_apply(Mat2(*a), b[:2])) == bits((a11 * b11 + a12 * b12, a21 * b11 + a22 * b12))


# entry points that read an outside real through `core._floats`, each taking x in one slot
_READERS = {
    "mat2_mul": lambda x: mat2_mul(Mat2(x, 0.0, 0.0, 1.0), IDENTITY2),
    "mat2_apply": lambda x: mat2_apply(IDENTITY2, (x, 0.0)),
    "sylvester_power": lambda x: sylvester_power(Mat2(1.0, x, 0.0, 1.0), 3),
    "mobius": lambda x: mobius(Mat2(1.0, x, 0.0, 1.0), 1j),
    "trace_ray": lambda x: trace_ray(OpticalSystem((), FreeSpace(1.0, 0.1)), RayState(x, 0.0)),
    "ray_bound_oracle": lambda x: ray_bound_oracle(fp_resonator(1.0, 0.5, 1.0), RayState(x, 0.0), 5),
    "ray_bound_oracle_factor": lambda x: ray_bound_oracle(fp_resonator(1.0, 0.5, 1.0), RayState(0.1, 0.0), 5, x),
    "stability_from_matrix": lambda x: stability_from_matrix(Mat2(x, 0.0, 0.0, 1.0)),
    "q_from_geometry": lambda x: q_from_geometry(x, 1e-3, 1e-6),
    "beam_at": lambda x: beam_at(1e-3, 1e-6, x),
    "snell_angle": lambda x: snell_angle(x, 1.5, 0.3),
    "oblique_incidence_fields": lambda x: oblique_incidence_fields(0.3, x, 1.5, 1.0, 1.0, 1.0),
    # the incidence angle, which `snell_angle` reads for each of these
    "snell_angle_theta": lambda x: snell_angle(1.0, 1.5, x),
    "fresnel_standard_theta": lambda x: fresnel_standard("s", 1.0, 1.5, x),
    "continuity_coefficients_theta": lambda x: continuity_coefficients(1.0, 1.5, x),
    "oblique_incidence_fields_theta": lambda x: oblique_incidence_fields(x, 1.0, 1.5, 1.0, 1.0, 1.0),
    "make_single_mode": lambda x: make_single_mode(x, 1.0, 4),
}


class TestNonRealInputs:
    @pytest.mark.parametrize("value", [None, 1j, "1e-3", b"1"], ids=["None", "complex", "str", "bytes"])
    @pytest.mark.parametrize("reader", _READERS.values(), ids=_READERS.keys())
    def test_non_real_is_a_domain_error(self, reader, value):
        # each raised TypeError, or read the string or bytes as the float it spells
        with pytest.raises(DomainError, match="expected a real number, got"):
            reader(value)

    # not `make_single_mode`, whose operators compare by identity
    @pytest.mark.parametrize("name", sorted(_READERS.keys() - {"make_single_mode"}))
    def test_real_that_is_not_a_float_reads_as_its_float(self, name):
        reader = _READERS[name]
        assert outcome(reader, Fraction(1, 4)) == outcome(reader, 0.25)
        assert outcome(reader, True) == outcome(reader, 1.0)


_AMPLITUDES = oblique_incidence_fields(0.3, 1.0, 1.5, 1.0, 1.0, 1.0)
# entry points that pass an outside number on to `core._checkable`, each taking x in one slot
_NUMBER_READERS = {
    "mobius": lambda x: mobius(IDENTITY2, x),
    "QParameter": lambda x: QParameter(x, 1e-6),
    "scalar_times_operator_lists": lambda x: x * make_single_mode(1.0).q,
    "scalar_times_operator_arrays": lambda x: x * make_single_mode(1.0, dim=LIST_DIM + 8).q,
    "max_boundary_residual": lambda x: max_boundary_residual(replace(_AMPLITUDES, incident=replace(
        _AMPLITUDES.incident, E=CVec3(x, 0j, 0j))), 10, 1),
}


class TestNonNumberInputs:
    @pytest.mark.parametrize("value", [None, "2", b"1", [1.0]], ids=["None", "str", "bytes", "list"])
    @pytest.mark.parametrize("reader", _NUMBER_READERS.values(), ids=_NUMBER_READERS.keys())
    def test_non_number_is_a_domain_error(self, reader, value):
        # each raised TypeError, or numpy's UFuncTypeError on arrays, except that the list
        # route of an operator's scalar product read "2" as 2
        with pytest.raises(DomainError, match="expected a number, got"):
            reader(value)


class TestSylvesterPower:
    def test_first_power_is_the_matrix(self):
        m = random_unimodular(random.Random(7))
        assert mat_close(sylvester_power(m, 1), m, 1e-12)

    def test_quarter_turn_squared(self):
        rot = Mat2(0.0, 1.0, -1.0, 0.0)
        expected = mat_pow_iterative(rot, 2)
        assert mat_close(sylvester_power(rot, 2), expected, 1e-12)

    def test_against_iterated_multiplication(self):
        rng = random.Random(42)
        for _ in range(50):
            m = random_unimodular(rng)
            n = rng.choice([2, 5, 17, 50, 100])
            assert mat_close(sylvester_power(m, n), mat_pow_iterative(m, n), 1e-9)

    def test_zeroth_power_is_identity(self):
        m = random_unimodular(random.Random(3))
        assert mat_close(sylvester_power(m, 0), IDENTITY2, 1e-12)

    def test_rejects_non_unimodular(self):
        with pytest.raises(DomainError):
            sylvester_power(Mat2(2.0, 0.0, 0.0, 1.0), 3)

    def test_rejects_nan_determinant(self):
        with pytest.raises(DomainError):
            sylvester_power(Mat2(math.nan, 0.0, 0.0, 1.0), 3)

    def test_rejects_large_half_trace(self):
        # det = 1 but trace 2: theta degenerate
        with pytest.raises(DomainError):
            sylvester_power(Mat2(1.0, 1.0, 0.0, 1.0), 3)

    def test_rejects_real_eigenvalues(self):
        # |half-trace| < 1 but not below sqrt(det): real eigenvalues, no angle theta
        with pytest.raises(DomainError):
            sylvester_power(Mat2(1.0 - 2e-10, 0.0, 0.0, 1.0 - 2e-10), 3)

    @pytest.mark.parametrize("n", [2.5, 3.0, math.inf, math.nan, "3", None, -1, -(10**5000)],
                             ids=["2.5", "3.0", "inf", "nan", "str", "None", "-1", "-10**5000"])
    def test_power_must_be_a_non_negative_integer(self, n):
        # 2.5 returned a matrix for a power that is not an integer
        with pytest.raises(DomainError, match="power must be a non-negative integer"):
            sylvester_power(random_unimodular(random.Random(11)), n)

    @pytest.mark.parametrize("n", [10**400, 2**1024, 10**5000, int(sys.float_info.max), 10**308],
                             ids=["10**400", "2**1024", "10**5000", "int(max double)", "10**308"])
    @pytest.mark.parametrize("seed", range(6))
    def test_power_beyond_the_double_range(self, n, seed):
        # 10**400 let OverflowError out of r ** (n - 1), and the largest double's int ValueError
        # out of sin(n theta) at det = 1, or OverflowError from r ** (n - 1) above it
        m = random_unimodular(random.Random(seed))
        try:
            out = sylvester_power(m, n)
        except DomainError as exc:
            assert str(exc).startswith("the power leaves the double range")
            return
        assert all(map(math.isfinite, (out.a11, out.a12, out.a21, out.a22)))

    def test_power_is_read_through_index(self):
        # an integer type that is not int gives the power of its int
        m = random_unimodular(random.Random(12))
        assert sylvester_power(m, np.int64(7)) == sylvester_power(m, 7)
        assert sylvester_power(m, True) == sylvester_power(m, 1)

    def test_keeps_the_determinant_factor(self):
        # a rounded round trip has det = 1 +- O(1e-15); a form that assumes
        # det = 1 drops det**(n/2), which is 1 + 5e-9 here
        u = random_unimodular(random.Random(5))
        k = math.sqrt(1.0 + 1e-12)
        m = Mat2(k * u.a11, k * u.a12, k * u.a21, k * u.a22)
        assert mat_close(sylvester_power(m, 10_000), mat_pow_iterative(m, 10_000), 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        det_error=st.floats(min_value=-9e-10, max_value=9e-10),
        n=st.integers(min_value=0, max_value=400),
    )
    def test_error_within_stated_bound(self, seed, det_error, n):
        k = math.sqrt(1.0 + det_error)
        u = random_unimodular(random.Random(seed), 0.999)
        m = Mat2(k * u.a11, k * u.a12, k * u.a21, k * u.a22)
        got = sylvester_power(m, n)
        exact = exact_power(m, n)
        det, ht = m.det(), half_trace(m)
        sin_theta = math.sqrt(1.0 - ht * ht / det)
        size = max(1.0, abs(m.a11), abs(m.a12), abs(m.a21), abs(m.a22))
        # the docstring's bound, c max(n, 1) eps |m|**2 s / sin(theta) with c = 8
        bound = 8 * max(n, 1) * 2.0**-53 * size**2 / sin_theta * max(1, *map(abs, exact))
        for value, reference in zip((got.a11, got.a12, got.a21, got.a22), exact):
            assert abs(value - reference) <= bound

    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.lists(st.sampled_from(EDGE_FLOATS + EDGE_INTS) | st.integers(-2, 2) | st.floats(-2, 2),
                         min_size=4, max_size=4),
        n=st.integers(0, 50),
    )
    @example(entries=[10**400, 0, 0, 1], n=3)  # raised OverflowError
    @example(entries=[0, 1, -1, 0], n=5)  # a quarter turn of ints
    def test_int_entries_read_as_their_floats(self, entries, n):
        # an int entry, one beyond the double range too, gives what its float
        # (a signed infinity there) gives: the same bits or the same error
        floats = Mat2(*map(read_real, entries))
        assert outcome(sylvester_power, Mat2(*entries), n) == outcome(sylvester_power, floats, n)


class TestComplexCross:
    def test_parallel_vanishes(self):
        u = CVec3(1 + 2j, -0.5j, 3.0)
        z = u.cross(u)
        assert z.x == 0 and z.y == 0 and z.z == 0

    def test_basis_orientation(self):
        ex = CVec3(1, 0, 0)
        ey = CVec3(0, 1, 0)
        assert ex.cross(ey) == CVec3(0, 0, 1)

    def test_axial_cross(self):
        k0, amp = 7.0, 2.5 + 1j
        out = CVec3(0, 0, k0).cross(CVec3(amp, 0, 0))
        assert out == CVec3(0, k0 * amp, 0)

    def test_antisymmetry_and_orthogonality(self):
        rng = random.Random(5)

        def rand_cvec():
            return CVec3(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            )

        for _ in range(500):
            u, v = rand_cvec(), rand_cvec()
            w = u.cross(v)
            flipped = v.cross(u)
            assert (w + flipped).max_abs() <= 1e-12 * max(w.max_abs(), 1.0)
            assert abs(u.dot(w)) <= 1e-12 * max(vec3_norm(u) * vec3_norm(w), 1.0)


class TestSharedProducts:
    @settings(max_examples=300, deadline=None)
    @given(parts=st.lists(st.sampled_from(EDGE_FLOATS + [math.inf, -math.inf, math.nan]) | st.floats(),
                          min_size=12, max_size=12),
           complex_=st.booleans())
    def test_dot_and_cross_are_the_former_formulas(self, parts, complex_):
        # the one dot and cross of RVec3 and CVec3 are bit for bit the
        # formulas written out, at edge values too
        if complex_:
            u, v = (CVec3(*(complex(parts[i], parts[i + 1]) for i in range(k, k + 6, 2))) for k in (0, 6))
        else:
            u, v = RVec3(*parts[:3]), RVec3(*parts[3:6])

        def complex_bits(x):
            return complex(x).real.hex(), complex(x).imag.hex()

        assert complex_bits(u.dot(v)) == complex_bits(vec3_dot(u, v))
        w = u.cross(v)
        assert type(w) is type(u)
        assert [complex_bits(c) for c in (w.x, w.y, w.z)] == [complex_bits(c) for c in vec3_cross(u, v)]


_FLOAT_PARTS = st.sampled_from(EDGE_FLOATS + [math.inf, -math.inf, math.nan]) | st.floats()
_REAL_PARTS = st.sampled_from(EDGE_INTS) | _FLOAT_PARTS
_COMPLEX_PARTS = st.sampled_from(EDGE_INTS) | st.builds(complex, _FLOAT_PARTS, _FLOAT_PARTS)
# two vectors of one class and a scalar for it, each part an IEEE edge value,
# +-inf, NaN, any float (complex: a pair of them) or an int past the double range
_OPERANDS = (st.tuples(*[st.builds(RVec3, *[_REAL_PARTS] * 3)] * 2, _REAL_PARTS)
             | st.tuples(*[st.builds(CVec3, *[_COMPLEX_PARTS] * 3)] * 2, _COMPLEX_PARTS))


def _parts_or_error(fn, *args) -> object:
    """The class and the parts' bits of fn(*args) (a vector or a tuple of parts), or the type it raises."""
    try:
        out = fn(*args)
    except OverflowError as exc:  # an int part past the double range meets a float or complex
        return type(exc)
    parts = (out.x, out.y, out.z) if isinstance(out, (RVec3, CVec3)) else out
    return type(out), tuple((c.real.hex(), c.imag.hex()) if isinstance(c, complex) else bits(c) for c in parts)


class TestSharedArithmetic:
    @settings(max_examples=500, deadline=None)
    @given(operands=_OPERANDS)
    @example(operands=(RVec3(10**400, 0.0, 0.0), RVec3(1.0, 0.0, 0.0), 2.0))
    @example(operands=(RVec3(10**400, 0, 0), RVec3(-(10**400), 0, 0), 10**400))
    @example(operands=(CVec3(math.inf + 0j, 0j, 0j), CVec3(math.inf + 0j, 0j, 0j), complex(0.0, math.inf)))
    def test_add_sub_and_scale_are_the_former_formulas(self, operands):
        # the one +, - and scale of RVec3 and CVec3 are bit for bit the
        # per-class formulas written out, with a result of the operands' class,
        # or raise what those formulas raise
        u, v, s = operands
        for method, formula, args in ((u.__add__, vec3_add, (v,)), (u.__sub__, vec3_sub, (v,)),
                                      (u.scale, vec3_scale, (s,))):
            out, expected = _parts_or_error(method, *args), _parts_or_error(formula, u, *args)
            if isinstance(expected, tuple):
                expected = (type(u), expected[1])
            assert out == expected


class TestCoplanar:
    def test_three_or_fewer_points_always(self):
        pts = [RVec3(0, 0, 0), RVec3(1, 2, 3), RVec3(-4, 5, 6)]
        assert coplanar(pts[:1]) and coplanar(pts[:2]) and coplanar(pts)

    def test_points_in_xz_plane(self):
        pts = [
            RVec3(0, 0, 0),
            RVec3(1, 0, 1),
            RVec3(-1, 0, 1),
            RVec3(2, 0, 1),
            RVec3(1, 0, 0),
        ]
        assert coplanar(pts)

    def test_tetrahedron_corners(self):
        pts = [RVec3(0, 0, 0), RVec3(1, 0, 0), RVec3(0, 1, 0), RVec3(0, 0, 1)]
        assert not coplanar(pts)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            coplanar([])

    def test_small_out_of_plane_lift_detected(self):
        pts = [RVec3(0, 0, 0), RVec3(1, 0, 0), RVec3(0, 0, 1), RVec3(1, 1e-3, 1)]
        assert not coplanar(pts)

    @pytest.mark.parametrize("part", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="10**400")])
    def test_part_not_finite_is_domain_error_naming_the_point(self, part):
        # NaN read coplanar, and 10**400 raised OverflowError
        with pytest.raises(DomainError, match="point 1 must be finite"):
            coplanar([RVec3(0, 0, 0), RVec3(part, 0, 0), RVec3(0, 1, 0), RVec3(0, 0, 1)])

    @pytest.mark.parametrize("points", [
        [RVec3(0, 0, 0), RVec3(1e308, 0, 0), RVec3(0, 1e308, 0), RVec3(0, 0, 1e308)],
        [RVec3(0, 0, 0), RVec3(1e-200, 0, 0), RVec3(0, 1e-200, 0), RVec3(0, 0, 1e-200)],
        [RVec3(-1e308, 0, 0), RVec3(1e308, 0, 0), RVec3(0, 1e308, 0), RVec3(0, 0, 1e308)],
    ], ids=["1e308", "1e-200", "overflowing-difference"])
    def test_tetrahedra_at_the_ends_of_the_range(self, points):
        # each read coplanar: the triple product and its scale overflowed to inf
        # (inf > 1e-12 * inf is false), underflowed to 0, or, from the difference
        # 2e308 = inf, the triple product was NaN
        assert not coplanar(points)

    def test_plane_through_an_overflowing_difference(self):
        assert coplanar([RVec3(-1e308, 0, 0), RVec3(1e308, 0, 0), RVec3(0, 1e308, 0), RVec3(0, -1e308, 0)])

    @settings(max_examples=300, deadline=None)
    @given(parts=st.lists(st.tuples(*[st.integers(-1000, 1000)] * 3), min_size=1, max_size=6),
           plane=st.sampled_from([None, (0, 0), (1, -1), (2, 1)]), shift=st.integers(-1012, 1012))
    @example(parts=[(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], plane=None, shift=1012)
    @example(parts=[(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], plane=None, shift=-1012)
    @example(parts=[(-1000, 0, 0), (1000, 0, 0), (0, 1000, 0), (0, 0, 1000)], plane=None, shift=1012)
    def test_verdict_is_exact_at_every_scale(self, parts, plane, shift):
        # integer points, on the plane z = a x + b y where one is given, scaled
        # by 2**shift: each difference, its power-of-two scaling and every
        # triple product are exact, so the verdict is the exact one at any scale
        if plane is not None:
            parts = [(x, y, plane[0] * x + plane[1] * y) for x, y, _ in parts]
        diffs = [[a - b for a, b in zip(p, parts[0])] for p in parts[1:]]
        exact = all(a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
                    + a[2] * (b[0] * c[1] - b[1] * c[0]) == 0 for a, b, c in combinations(diffs, 3))
        assert coplanar([RVec3(*(math.ldexp(c, shift) for c in p)) for p in parts]) is exact

    @settings(max_examples=300, deadline=None)
    @given(parts=st.lists(st.tuples(EDGE_REALS, EDGE_REALS, EDGE_REALS), min_size=1, max_size=5))
    def test_edge_parts_give_a_verdict_or_a_domain_error(self, parts):
        points = [RVec3(*p) for p in parts]
        if all(math.isfinite(read_real(x)) for p in parts for x in p):
            assert coplanar(points) in (True, False)
        else:
            with pytest.raises(DomainError):
                coplanar(points)


class TestMobius:
    def test_identity_fixes_q(self):
        q = 0.25 + 1.5j
        assert mobius(IDENTITY2, q) == q

    def test_translation_shifts(self):
        assert mobius(Mat2(1.0, 0.5, 0.0, 1.0), 1j) == 0.5 + 1j

    def test_composition_law(self):
        rng = random.Random(11)
        for _ in range(500):
            m1 = Mat2(*(rng.uniform(-2, 2) for _ in range(4)))
            m2 = Mat2(*(rng.uniform(-2, 2) for _ in range(4)))
            q = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
            try:
                chained = mobius(m2, mobius(m1, q))
                composed = mobius(mat2_mul(m2, m1), q)
            except SingularTransform:
                continue
            if abs(m1.a21 * q + m1.a22) < 1e-3:  # skip ill-conditioned draws
                continue
            assert abs(chained - composed) <= 1e-10 * max(1.0, abs(composed))

    def test_singular_denominator(self):
        with pytest.raises(SingularTransform):
            mobius(Mat2(1.0, 0.0, 1.0, 0.0), 0j)

    def test_singular_threshold_is_on_the_modulus(self):
        # both components are below 1e-300 in each case; only |den| decides
        with pytest.raises(SingularTransform):
            mobius(Mat2(1.0, 0.0, 1.0, 0.0), complex(7e-301, 7e-301))  # |den| = 9.9e-301
        assert mobius(Mat2(1.0, 0.0, 1.0, 0.0), complex(8e-301, 8e-301)) == 1.0  # |den| = 1.13e-300

    def test_denominator_beyond_float_range_is_domain_error(self):
        # abs() of the finite denominator 1.5e308 + 1.5e308j overflowed (was
        # OverflowError); the numerator inf * q has no finite quotient
        with pytest.raises(DomainError):
            mobius(Mat2(math.inf, 0.0, 1.0, 0.0), complex(1.5e308, 1.5e308))

    def test_denominator_near_float_limit_divides_exactly(self):
        # complex division overflowed its own intermediates: it returned -0j
        # for a true -0.5, and nan (a DomainError) for q / q
        assert mobius(Mat2(0.5, 0.2, -1.0, 1.0), complex(1e308, 1e308)) == -0.5
        assert mobius(Mat2(1.0, 0.0, 1.0, 0.0), complex(1.5e308, 1.5e308)) == 1.0

    def test_overflowing_numerator_is_formed_again(self):
        # the numerator 2e308 + 1j overflowed to inf as it was formed, a
        # DomainError, though the quotient is representable; halving num and
        # den is exact here, so (1e308 + 0.5j) / 1 is the exact quotient
        out = mobius(Mat2(1.0, 1e308, 0.0, 2.0), complex(1e308, 1.0))
        assert quotient_close(out, complex(1e308, 0.5), 1 + 0j)
        assert out == complex(1e308, 0.5)
        assert mobius(Mat2(2.0, 0.0, 1.0, 0.0), complex(1.5e308, 1.5e308)) == 2.0
        with pytest.raises(DomainError):  # 1e318 is beyond the float range
            mobius(Mat2(1e308, 0.0, 1e-10, 0.0), complex(1e308, 1.0))

    def test_division_overflowing_inside_is_formed_again(self):
        # num = 1.5e308 + 1.5e308j and den ~ 1 + 1j are finite, but complex
        # division overflowed inside, in num.real + num.imag * (den.imag / den.real):
        # a DomainError, though the quotient ~ 1.5e308 is representable
        m, q = Mat2(1.0, 0.0, 1 / 1.5e308, 0.0), complex(1.5e308, 1.5e308)
        out = mobius(m, q)
        assert quotient_close(out, m.a11 * q + m.a12, m.a21 * q + m.a22)
        with pytest.raises(DomainError):  # the quotient ~ 6e308 is not representable
            mobius(Mat2(1.0, 0.0, 0.25 / 1.5e308, 0.0), q)

    @pytest.mark.parametrize("m, q", [(Mat2(1.0, 1.0, 1e308, 1e308), complex(10.0, 1.0)),
                                      (Mat2(1.0, 0.0, 1e308, 0.0), complex(1e308, 1e308))])
    def test_overflowing_denominator_is_formed_again(self, m, q):
        # the denominator overflowed as it was formed: the first returned 0j,
        # the second raised a NaN DomainError; both rows are proportional, so
        # each exact quotient is 1 / 1e308, a subnormal double
        out = mobius(m, q)
        exact = exact_mobius(m, q)
        assert exact == (1 / Fraction(1e308), 0)
        assert abs(Fraction(out.real) - exact[0]) <= Fraction(2) ** -1074 and out.imag == 0

    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.lists(st.sampled_from(EDGE_FLOATS + EDGE_INTS) | st.floats(allow_nan=False, allow_infinity=False),
                         min_size=6, max_size=6)
    )
    @example(entries=[10**400, 0, 0, 1, 0.0, 1.0])  # raised OverflowError
    @example(entries=[1.0, 0.0, 0.0, 1.0, 10**400, 1.0])  # an int q, beyond the double range
    @example(entries=[0.5, 0.2, -1.0, 1.0, 1e308, 1e308])
    @example(entries=[1.0, 1e308, 0.0, 2.0, 1e308, 1.0])
    @example(entries=[1.0, 1.0, 1e308, 1e308, 10.0, 1.0])
    @example(entries=[1.0, 0.0, 1e308, 0.0, 1e308, 1e308])
    def test_finite_or_optikit_error(self, entries):
        *m, q_re, q_im = entries
        q = q_re if isinstance(q_re, int) else complex(q_re, read_real(q_im))  # an int q is a real q
        # int entries give what their floats give: the same bits or the same error
        assert outcome(mobius, Mat2(*m), q) == outcome(mobius, Mat2(*map(read_real, m)), q)
        m = Mat2(*map(read_real, m))
        try:
            out = mobius(m, q)
        except OptikitError:
            return
        q = read_real(q) if isinstance(q, int) else q
        assert cmath.isfinite(out)
        # the division matches the exact quotient of num and den, rounded as
        # mobius forms them; a row that overflows is formed from its entries
        # scaled by the first power of two that keeps it finite, and out is
        # scaled by the difference
        num, den = m.a11 * q + m.a12, m.a21 * q + m.a22
        shift = 0
        while not cmath.isfinite(num) and shift < 1100:
            shift += 1
            num = math.ldexp(m.a11, -shift) * q + math.ldexp(m.a12, -shift)
        den_shift = 0
        while not cmath.isfinite(den) and den_shift < 1100:
            den_shift += 1
            den = math.ldexp(m.a21, -den_shift) * q + math.ldexp(m.a22, -den_shift)
        shift -= den_shift
        if cmath.isfinite(num) and cmath.isfinite(den):
            assert quotient_close(out, num, den, shift)
