import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import EDGE_FLOATS
from optikit.core import Mat2, mat2_mul
from optikit.errors import DomainError, OptikitError, UnphysicalBeam
from optikit.gaussian import (
    FLAT,
    QParameter,
    beam_at,
    geometry_from_q,
    propagate_q,
    q_from_geometry,
)


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

    @pytest.mark.parametrize("q, wavelength", [(complex(1.0, 1e-3), 1e308), (complex(0.0, 5e-324), 1e-6)])
    def test_spot_radius_outside_float_range_rejected(self, q, wavelength):
        # w overflows to inf or underflows to 0
        with pytest.raises(DomainError):
            geometry_from_q(QParameter(q, wavelength))

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
