import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import EDGE_FLOATS, exact_power, mat_close, mat_pow_iterative, random_unimodular
from optikit.core import (
    CVec3,
    IDENTITY2,
    Mat2,
    RVec3,
    ccross,
    cdot,
    coplanar,
    mat2_apply,
    mat2_mul,
    mobius,
    sylvester_power,
)
from optikit.errors import DomainError, OptikitError, SingularTransform

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
matrices = st.builds(Mat2, finite, finite, finite, finite)


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
        det, ht = m.det(), m.half_trace()
        sin_theta = math.sqrt(1.0 - ht * ht / det)
        size = max(1.0, abs(m.a11), abs(m.a12), abs(m.a21), abs(m.a22))
        # the docstring's bound, c max(n, 1) eps |m|**2 s / sin(theta) with c = 8
        bound = 8 * max(n, 1) * 2.0**-53 * size**2 / sin_theta * max(1, *map(abs, exact))
        for value, reference in zip((got.a11, got.a12, got.a21, got.a22), exact):
            assert abs(value - reference) <= bound


class TestComplexCross:
    def test_parallel_vanishes(self):
        u = CVec3(1 + 2j, -0.5j, 3.0)
        z = ccross(u, u)
        assert z.x == 0 and z.y == 0 and z.z == 0

    def test_basis_orientation(self):
        ex = CVec3(1, 0, 0)
        ey = CVec3(0, 1, 0)
        assert ccross(ex, ey) == CVec3(0, 0, 1)

    def test_axial_cross(self):
        k0, amp = 7.0, 2.5 + 1j
        out = ccross(CVec3(0, 0, k0), CVec3(amp, 0, 0))
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
            w = ccross(u, v)
            flipped = ccross(v, u)
            assert (w + flipped).max_abs() <= 1e-12 * max(w.max_abs(), 1.0)
            assert abs(cdot(u, w)) <= 1e-12 * max(u.norm() * w.norm(), 1.0)


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
        # abs() of the finite denominator 1.5e308 + 1.5e308j overflowed (was OverflowError)
        with pytest.raises(DomainError):
            mobius(Mat2(1.0, 0.0, 1.0, 0.0), complex(1.5e308, 1.5e308))

    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False),
                         min_size=6, max_size=6)
    )
    def test_finite_or_optikit_error(self, entries):
        *m, q_re, q_im = entries
        try:
            out = mobius(Mat2(*m), complex(q_re, q_im))
        except OptikitError:
            return
        assert cmath.isfinite(out)
