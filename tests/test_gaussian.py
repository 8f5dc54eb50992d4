import cmath
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import EDGE_FLOATS
from optikit.core import Mat2, mat2_mul
from optikit.errors import DomainError, OptikitError, UnphysicalBeam
from optikit.gaussian import (
    FLAT,
    BeamGeometry,
    QParameter,
    beam_at,
    geometry_from_q,
    propagate_q,
    q_from_geometry,
)


def exact_spot_square(q: complex, wavelength: float) -> Fraction:
    """w**2 = wavelength |q|**2 / (pi Im q), exactly over Fraction from the doubles (pi too)."""
    x, y = Fraction(q.real), Fraction(q.imag)
    return Fraction(wavelength) * (x * x + y * y) / (Fraction(math.pi) * y)


def free_space(d: float) -> Mat2:
    return Mat2(1.0, d, 0.0, 1.0)


class TestQFromGeometry:
    def test_waist_millimeter_beam(self):
        qp = q_from_geometry(FLAT, 1e-3, 1e-6)
        assert abs(qp.q - complex(0.0, math.pi)) <= 1e-12 * math.pi

    def test_flat_front_means_pure_imaginary_q(self):
        rng = random.Random(1)
        for _ in range(100):
            qp = q_from_geometry(FLAT, rng.uniform(1e-5, 1e-2), rng.uniform(1e-7, 1e-5))
            assert qp.q.real == 0.0

    def test_geometry_round_trip(self):
        rng = random.Random(2)
        for _ in range(300):
            w = rng.uniform(1e-5, 1e-2)
            lam = rng.uniform(1e-7, 1e-5)
            r = rng.choice([FLAT, rng.uniform(0.01, 10), -rng.uniform(0.01, 10)])
            r_back, w_back = geometry_from_q(q_from_geometry(r, w, lam))
            assert math.isclose(w_back, w, rel_tol=1e-12)
            if r is FLAT:
                assert math.isinf(r_back)
            else:
                assert math.isclose(r_back, r, rel_tol=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            q_from_geometry(FLAT, -1e-3, 1e-6)
        with pytest.raises(DomainError):
            q_from_geometry(FLAT, 1e-3, 0.0)
        with pytest.raises(DomainError):
            q_from_geometry(0.0, 1e-3, 1e-6)

    @pytest.mark.parametrize("w", [1e-300, math.inf])
    def test_spot_area_outside_float_range_rejected(self, w):
        # pi w**2 underflows to 0 (was ZeroDivisionError) or makes 1/q = 0
        # (was complex division by zero)
        with pytest.raises(DomainError):
            q_from_geometry(FLAT, w, 1e-6)


class TestGeometryFromQ:
    def test_waist_values(self):
        r, w = geometry_from_q(QParameter(complex(0.0, math.pi), 1e-6))
        assert math.isinf(r)
        assert math.isclose(w, 1e-3, rel_tol=1e-12)

    def test_rayleigh_distance_curvature(self):
        z_r = 0.75
        r, _ = geometry_from_q(QParameter(complex(z_r, z_r), 1e-6))
        assert math.isclose(r, 2 * z_r, rel_tol=1e-12)

    def test_unphysical_rejected(self):
        with pytest.raises(UnphysicalBeam):
            QParameter(complex(0.0, -1.0), 1e-6)

    @pytest.mark.parametrize(
        "q, wavelength",
        [(1j, math.inf), (1j, math.nan), (complex(math.inf, 1.0), 1e-6), (complex(0.0, math.inf), 1e-6)],
    )
    def test_nonfinite_rejected(self, q, wavelength):
        with pytest.raises(DomainError, match="finite"):
            QParameter(q, wavelength)

    def test_underflowing_inverse_rejected(self):
        # 1/q rounds to 0 (was ZeroDivisionError)
        with pytest.raises(DomainError):
            geometry_from_q(QParameter(complex(1e308, 1e308), 1e-6))

    @pytest.mark.parametrize("q, wavelength", [(complex(1e160, 1.0), 1e308)])
    def test_spot_radius_outside_float_range_rejected(self, q, wavelength):
        # w = 5.6e313 overflows to inf
        with pytest.raises(DomainError):
            geometry_from_q(QParameter(q, wavelength))

    @pytest.mark.parametrize(
        "q, wavelength, spot",
        [(1e-300j, 1e-300, 5.6419e-301), (1e-3j, 1e-320, 1.7841e-162), (1e20j, 1e300, 5.6419e159),
         (complex(1.0, 1e-3), 1e308, 1.7841e155), (complex(1.0, 5e-324), 1.0, 2.5382e161),
         (complex(1.5, 5e-324), 1e-300, 3.8074e11)],
    )
    def test_spot_radius_where_the_closed_form_leaves_the_normal_floats(self, q, wavelength, spot):
        # wavelength / spread underflowed to 0.0 (or into the subnormals, 25% off
        # in w) or overflowed to inf, so w read 0.0 or inf and raised, and a
        # subnormal Im(1/q) put spread 32% off in w (the last case); w from q
        # itself is within a few ulps of the exact value
        _, w = geometry_from_q(QParameter(q, wavelength))
        assert abs(Fraction(w) ** 2 / exact_spot_square(q, wavelength) - 1) < Fraction(2) ** -48
        assert math.isclose(w, spot, rel_tol=1e-4)

    def test_spot_radius_of_a_subnormal_q(self):
        # 1/q overflows to -infj, so w read 0.0 and raised; the exact w is
        # sqrt(wavelength Im q / pi) = 1.25e-165
        r, w = geometry_from_q(QParameter(5e-324j, 1e-6))
        assert r == FLAT
        assert abs(Fraction(w) ** 2 / exact_spot_square(5e-324j, 1e-6) - 1) < Fraction(2) ** -48
        assert math.isclose(w, 1.2540573e-165, rel_tol=1e-7)

    @pytest.mark.parametrize("q", [complex(5e-324, 5e-324), complex(1e-310, 5e-324), complex(-3e-320, 7e-322),
                                   complex(5e-324, 1e-315)])
    def test_radius_and_spot_of_a_subnormal_q(self, q):
        # pi |1/q| overflows: 1/q of the first three has an infinite real part,
        # so R read 0.0 or -0.0 (or w read 0.0 and raised), and the last read
        # a flat front; R is within 2**-48 of the exact |q|**2 / Re q, or within
        # one subnormal spacing of it
        r, w = geometry_from_q(QParameter(q, 1e-6))
        x, y = Fraction(q.real), Fraction(q.imag)
        exact_r = (x * x + y * y) / x
        assert abs(Fraction(r) - exact_r) <= max(Fraction(5e-324), abs(exact_r) * Fraction(2) ** -48)
        assert abs(Fraction(w) ** 2 / exact_spot_square(q, 1e-6) - 1) < Fraction(2) ** -48

    def test_spot_radius_survives_an_overflowing_product(self):
        # pi * (-Im(1/q)) = pi * 1e308 overflowed, so w read 0.0 and raised;
        # w**2 = wavelength |q|**2 / (pi Im q), exactly over Fraction from the
        # doubles (pi too), is within a few ulps of the returned w squared
        q = complex(5e-309, 5e-309)
        _, w = geometry_from_q(QParameter(q, 1e-6))
        assert abs(Fraction(w) ** 2 / exact_spot_square(q, 1e-6) - 1) < Fraction(2) ** -48
        assert math.isclose(w, 5.6419e-158, rel_tol=1e-4)

    def test_radius_beyond_float_range_is_flat(self):
        # 1 / Re(1/q) overflows to -inf here
        r, _ = geometry_from_q(QParameter(complex(-1e291, 1e300), 1e-6))
        assert r == FLAT


class TestPropagation:
    def test_identity_matrix_fixes_q(self):
        qp = QParameter(0.3 + 2.0j, 1e-6)
        assert propagate_q(qp, Mat2(1.0, 0.0, 0.0, 1.0)).q == qp.q

    def test_free_space_adds_distance(self):
        qp = QParameter(0.3 + 2.0j, 1e-6)
        out = propagate_q(qp, free_space(0.7))
        assert out.q == qp.q + 0.7
        assert out.wavelength == qp.wavelength

    def test_free_space_additivity(self):
        qp = QParameter(-0.2 + 1.5j, 1e-6)
        two_step = propagate_q(propagate_q(qp, free_space(0.4)), free_space(0.6))
        one_step = propagate_q(qp, free_space(1.0))
        assert abs(two_step.q - one_step.q) <= 1e-12 * abs(one_step.q)

    def test_sequential_equals_composed(self):
        rng = random.Random(3)
        for _ in range(300):
            m1 = Mat2(*(rng.uniform(-2, 2) for _ in range(4)))
            m2 = Mat2(*(rng.uniform(-2, 2) for _ in range(4)))
            if m1.det() <= 0.1 or m2.det() <= 0.1:
                continue
            qp = QParameter(complex(rng.uniform(-2, 2), rng.uniform(0.1, 3)), 1e-6)
            chained = propagate_q(propagate_q(qp, m1), m2)
            composed = propagate_q(qp, mat2_mul(m2, m1))
            assert abs(chained.q - composed.q) <= 1e-10 * max(1.0, abs(composed.q))

    def test_positive_det_preserves_physicality(self):
        rng = random.Random(4)
        count = 0
        while count < 1000:
            m = Mat2(*(rng.uniform(-2, 2) for _ in range(4)))
            det = m.det()
            if det <= 0.1:
                continue
            target = rng.uniform(0.5, 2.0)
            s = math.sqrt(target / det)
            m = Mat2(s * m.a11, s * m.a12, s * m.a21, s * m.a22)
            qp = QParameter(complex(rng.uniform(-5, 5), rng.uniform(1e-3, 5)), 1e-6)
            assert propagate_q(qp, m).q.imag > 0
            count += 1

    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False),
                         min_size=5, max_size=5),
        q_im=st.sampled_from([x for x in EDGE_FLOATS if x > 0]) | st.floats(min_value=5e-324, allow_infinity=False),
    )
    def test_finite_or_optikit_error(self, entries, q_im):
        *m, q_re = entries
        try:
            out = propagate_q(QParameter(complex(q_re, q_im), 1e-6), Mat2(*m))
        except OptikitError:
            return
        assert cmath.isfinite(out.q) and out.q.imag > 0


class TestBeamAt:
    def test_waist(self):
        geo = beam_at(1e-3, 1e-6, 0.0)
        assert geo.w == 1e-3
        assert math.isinf(geo.R)
        assert math.isclose(geo.zR, math.pi, rel_tol=1e-12)

    def test_rayleigh_distance(self):
        geo = beam_at(1e-3, 1e-6, math.pi)  # z = zR here
        assert math.isclose(geo.w, 1e-3 * math.sqrt(2), rel_tol=1e-12)
        assert math.isclose(geo.R, 2 * math.pi, rel_tol=1e-12)

    def test_matches_free_space_q_propagation(self):
        # same beam two ways: closed-form geometry vs Moebius transport of
        # the waist q through [[1, z], [0, 1]]
        rng = random.Random(5)
        for _ in range(200):
            w0 = rng.uniform(1e-5, 1e-2)
            lam = rng.uniform(1e-7, 1e-5)
            z_r = math.pi * w0 * w0 / lam
            z = rng.uniform(-5, 5) * z_r
            if z == 0:
                continue
            geo = beam_at(w0, lam, z)
            qp = propagate_q(q_from_geometry(FLAT, w0, lam), free_space(z))
            r_q, w_q = geometry_from_q(qp)
            assert math.isclose(geo.w, w_q, rel_tol=1e-12)
            assert math.isclose(geo.R, r_q, rel_tol=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            beam_at(0.0, 1e-6, 1.0)
        with pytest.raises(DomainError):
            beam_at(1e-3, -1e-6, 1.0)

    @pytest.mark.parametrize(
        "w0, wavelength, z",
        [
            (5e-324, 5e-324, 1.0),  # zR underflows to 0 (was ZeroDivisionError)
            (1.0, 5e-324, 0.0),  # zR overflows (returned zR=inf)
            (math.inf, 1e-6, 1.0),
            (1e-3, math.inf, 1.0),
            (1e-3, 1e-6, math.inf),
            (1e-3, 1e-6, math.nan),
            (1e-100, 1e-100, 1e300),  # w = 3e299 / 1e-100 overflows
        ],
    )
    def test_out_of_range_is_domain_error(self, w0, wavelength, z):
        with pytest.raises(DomainError):
            beam_at(w0, wavelength, z)

    def test_radius_beyond_float_range_is_flat(self):
        # (zR / z)**2 overflowed (was OverflowError); R = z + zR**2 / z is 2e616
        geo = beam_at(1.0, 2.2250738585072014e-308, 1.0)
        assert geo.R == FLAT and geo.w == 1.0 and geo.zR == math.pi / 2.2250738585072014e-308
        # where (zR / z)**2 overflows, the q law reads the front as flat too
        for z in (1e-300, -1e-300):
            r_q, _ = geometry_from_q(propagate_q(q_from_geometry(FLAT, 1.0, 1e-6), free_space(z)))
            assert beam_at(1.0, 1e-6, z).R == r_q == FLAT

    def test_spot_radius_beyond_squared_range(self):
        # (z / zR)**2 overflows, but w = w0 |z| / zR does not
        geo = beam_at(1e-100, 1e-100, 1e60)
        assert geo.w == 1e-100 * (1e60 / (math.pi * 1e-100))
        assert math.isclose(geo.R, 1e60, rel_tol=1e-15)


EDGE_OR_FINITE = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)


def plain_beam_at(w0: float, wavelength: float, z: float) -> BeamGeometry | None:
    """The closed forms evaluated as written, or None for a non-positive w0 or
    wavelength and where they leave the float range (reference)."""
    if not (w0 > 0 and wavelength > 0):
        return None
    try:
        z_r = math.pi * w0 * w0 / wavelength
        w = w0 * math.sqrt(1.0 + (z / z_r) ** 2)
        r = FLAT if z == 0 else z * (1.0 + (z_r / z) ** 2)
    except (ZeroDivisionError, OverflowError):
        return None
    return BeamGeometry(r, w, w0, z_r, z) if all(map(math.isfinite, (w, z_r))) and r != -math.inf else None


class TestEdgeValues:
    """Every entry point returns finite fields (R may be FLAT) or raises an OptikitError."""

    @settings(max_examples=300, deadline=None)
    @given(w0=EDGE_OR_FINITE, wavelength=EDGE_OR_FINITE, z=EDGE_OR_FINITE)
    def test_beam_at(self, w0, wavelength, z):
        try:
            geo = beam_at(w0, wavelength, z)
        except DomainError:
            assert plain_beam_at(w0, wavelength, z) is None
            return
        assert all(map(math.isfinite, (geo.w, geo.w0, geo.zR, geo.z))) and geo.w > 0 and geo.zR > 0
        assert geo.R == FLAT or math.isfinite(geo.R)
        reference = plain_beam_at(w0, wavelength, z)
        if reference is not None:  # representable results are the closed forms bit for bit
            assert repr(geo) == repr(reference)

    @settings(max_examples=300, deadline=None)
    @given(r=st.just(FLAT) | EDGE_OR_FINITE, w=EDGE_OR_FINITE, wavelength=EDGE_OR_FINITE)
    def test_q_from_geometry(self, r, w, wavelength):
        try:
            qp = q_from_geometry(r, w, wavelength)
        except OptikitError:
            return
        assert cmath.isfinite(qp.q) and qp.q.imag > 0 and qp.wavelength == wavelength

    @settings(max_examples=300, deadline=None)
    @given(q_re=EDGE_OR_FINITE, q_im=EDGE_OR_FINITE, wavelength=EDGE_OR_FINITE)
    def test_geometry_from_q(self, q_re, q_im, wavelength):
        try:
            r, w = geometry_from_q(QParameter(complex(q_re, q_im), wavelength))
        except OptikitError:
            return
        assert r == FLAT or math.isfinite(r)
        assert 0 < w < math.inf
        inv_q = 1 / complex(q_re, q_im)
        ratio = wavelength / (math.pi * -inv_q.imag)
        if (math.pi * math.hypot(inv_q.real, inv_q.imag) < math.inf
                and sys.float_info.min <= min(q_im, -inv_q.imag, ratio) and ratio < math.inf):
            # the common path, where Im q, Im(1/q) and wavelength / spread are
            # normal floats, is the closed form bit for bit
            assert w == math.sqrt(ratio)
        elif w >= sys.float_info.min:  # w came from q itself: w**2 within 2**-48
            exact = exact_spot_square(complex(q_re, q_im), wavelength)
            assert abs(Fraction(w) ** 2 / exact - 1) < Fraction(2) ** -48
