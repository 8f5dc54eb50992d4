import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import EDGE_FLOATS, EDGE_INTS, annihilator, band_bytes, basis
from optikit.errors import DimensionMismatch, DomainError, OptikitError
from optikit.quantum import (
    LIST_DIM,
    InnerProduct,
    Operator,
    StateVector,
    commutator,
    ground_energy,
    hermitian_eigenvalues,
    make_single_mode,
)


def random_state(rng, dim):
    return StateVector(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def dense_product(a, b):
    """a @ b summed term by term in index order, without BLAS (reference)."""
    return np.sum(a[:, :, None] * b[None, :, :], axis=1)


def random_sparse_matrix(rng, dim):
    """Complex dim x dim matrix with about a third of its entries zero."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return np.where(rng.random((dim, dim)) < 0.35, 0.0, m)


class TestInnerProduct:
    def test_basis_states_orthogonal(self):
        e0 = basis(4, 0)
        e1 = basis(4, 1)
        assert InnerProduct()(e0, e1) == 0

    def test_normalized_real_vector(self):
        x = StateVector(np.array([0.6, 0.8], dtype=complex))
        assert InnerProduct()(x, x) == pytest.approx(1.0, abs=1e-15)

    def test_linear_in_second_argument(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x, y = random_state(rng, 5), random_state(rng, 5)
            a = complex(rng.standard_normal(), rng.standard_normal())
            lhs = InnerProduct()(x, StateVector(a * y.amplitudes))
            rhs = a * InnerProduct()(x, y)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            InnerProduct()(basis(2, 0), basis(3, 0))

    @pytest.mark.parametrize("weight", [np.eye(2), np.ones((3, 2)), [[1.0, 0.0, 0.0]] * 3 + [[0.0] * 3]])
    def test_weight_of_the_wrong_shape(self, weight):
        # np.eye(2) on 3-vectors raised numpy's ValueError
        with pytest.raises(DimensionMismatch, match="weight of shape"):
            InnerProduct(weight)(basis(3, 0), basis(3, 1))

    @pytest.mark.parametrize("weight", [[[math.nan, 0.0], [0.0, 1.0]], [[math.inf, 0.0], [0.0, 1.0]],
                                        np.array([[10**400, 0], [0, 1]], dtype=object), [1.0, 1.0]])
    def test_weight_that_is_not_a_finite_matrix(self, weight):
        with pytest.raises(DomainError, match="inner product weight must be finite"):
            InnerProduct(weight)(basis(2, 0), basis(2, 1))

    @pytest.mark.parametrize("x, y", [([1e308, 1e308], [1e308, -1e308]), ([1e308], [1e308])])
    def test_pairing_beyond_the_double_range(self, x, y):
        # (inf - inf) gave nan+nanj, and 1e308 * 1e308 inf
        with pytest.raises(DomainError, match="inner product overflows"):
            InnerProduct()(StateVector(x), StateVector(y))

    def test_axioms_with_positive_definite_weight(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        weight = g.conj().T @ g + 0.5 * np.eye(4)
        pairing = InnerProduct(weight=weight)
        for _ in range(200):
            x, y, z = (random_state(rng, 4) for _ in range(3))
            a = complex(rng.standard_normal(), rng.standard_normal())
            scale = max(1.0, abs(pairing(x, y)))
            # conjugate symmetry
            assert abs(np.conj(pairing(y, x)) - pairing(x, y)) <= 1e-12 * scale
            # additivity in the first argument
            xy = StateVector(x.amplitudes + y.amplitudes)
            lhs = pairing(xy, z)
            rhs = pairing(x, z) + pairing(y, z)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
            # positivity, zero only at zero
            self_product = pairing(x, x)
            assert abs(self_product.imag) <= 1e-12 * max(1.0, abs(self_product))
            assert self_product.real > 0
            # homogeneity in the second argument
            ay = StateVector(a * y.amplitudes)
            assert abs(pairing(x, ay) - a * pairing(x, y)) <= 1e-12 * scale * max(1.0, abs(a))


class TestStateVector:
    @pytest.mark.parametrize("amplitudes", [1.0, [[1.0, 0.0]], [math.nan, 0.0], [0.0, -math.inf], [10**400],
                                            np.array([1, -(10**400)], dtype=object)])
    def test_amplitudes_are_a_finite_1d_array(self, amplitudes):
        # StateVector(1.0).dim raised IndexError, [10**400] OverflowError, and NaN reached the pairing
        with pytest.raises(DomainError, match="state amplitudes must be finite"):
            StateVector(amplitudes)

    def test_amplitudes_keep_their_bits(self):
        x = StateVector([1, -0.0, 0.5j, complex(-0.0, -0.0), 5e-324])
        assert x.dim == 5 and x.amplitudes.dtype == complex
        assert repr(x.amplitudes.tolist()) == repr([1 + 0j, complex(-0.0, 0.0), 0.5j, complex(-0.0, -0.0), 5e-324 + 0j])


class TestSelfAdjoint:
    def test_mode_observables_are(self):
        sm = make_single_mode(1.3, 1.0, 8)
        for op in (sm.q, sm.p, sm.H):
            m = op.matrix
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12


class TestBandedOperator:
    def test_matches_dense_numpy(self):
        rng = np.random.default_rng(9)
        for dim in range(1, 7):
            for _ in range(40):
                x, y = random_sparse_matrix(rng, dim), random_sparse_matrix(rng, dim)
                a, b = Operator(x), Operator(y)
                scalar = complex(rng.standard_normal(), rng.standard_normal())
                assert np.array_equal(a.matrix, x)
                assert np.array_equal(a.adjoint().matrix, x.conj().T)
                assert np.array_equal((a + b).matrix, x + y)
                assert np.array_equal((a - b).matrix, x - y)
                assert np.array_equal((scalar * a).matrix, scalar * x)
                assert np.max(np.abs((a @ b).matrix - x @ y), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(x @ y)))
                assert sorted(a.bands) == sorted({j - i for i, j in zip(*np.nonzero(x))})

    @pytest.mark.parametrize("op", ["__add__", "__sub__", "__matmul__"])
    def test_dimension_mismatch(self, op):
        with pytest.raises(DimensionMismatch):
            getattr(Operator(np.eye(2)), op)(Operator(np.eye(3)))

    @settings(max_examples=60, deadline=None)
    @given(
        omega=st.floats(min_value=1e-100, max_value=1e100),
        hbar=st.floats(min_value=1e-100, max_value=1e100),
        dim=st.integers(min_value=2, max_value=64),
    )
    def test_mode_products_equal_dense_reference(self, omega, hbar, dim):
        # q and p span two bands each, so every entry of a product sums at
        # most two nonzero terms and the band route rounds as the dense one
        sm = make_single_mode(omega, hbar, dim)
        a = annihilator(dim).matrix
        q = np.sqrt(hbar / (2.0 * omega)) * (a.T + a)
        p = 1j * np.sqrt(hbar * omega / 2.0) * (a.T - a)
        assert np.array_equal(sm.q.matrix, q) and np.array_equal(sm.p.matrix, p)
        assert np.array_equal((sm.q @ sm.p).matrix, dense_product(q, p))
        comm = dense_product(q, p) - dense_product(p, q)
        assert np.array_equal(commutator(sm.q, sm.p).matrix, comm)

    @pytest.mark.parametrize("omega, hbar", [(1.0, 1.0), (2.5, 0.7), (1e-3, 3e4), (7e5, 1e-6)])
    @pytest.mark.parametrize("dim", [2, 3, 17, 64, 512])
    def test_commutator_closed_form(self, omega, hbar, dim):
        # [q, p] = j hbar (I - D e_{D-1} e_{D-1}^T), the top level included
        sm = make_single_mode(omega, hbar, dim)
        comm = commutator(sm.q, sm.p).matrix
        expected = 1j * hbar * np.eye(dim)
        expected[-1, -1] -= 1j * hbar * dim
        assert np.max(np.abs(comm - expected)) <= 1e-12 * hbar * dim


class TestCommutator:
    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(5)
        op = Operator(rng.standard_normal((4, 4)))
        assert np.max(np.abs(commutator(op, op).matrix)) == 0.0

    def test_diagonals_commute(self):
        a = Operator(np.diag([1.0, 2.0, 3.0]))
        b = Operator(np.diag([-1.0, 0.5, 7.0]))
        assert np.max(np.abs(commutator(a, b).matrix)) == 0.0

    def test_truncated_canonical_commutator(self):
        sm = make_single_mode(1.0, 1.0, 4)
        comm = commutator(sm.q, sm.p).matrix
        expected = 1j * np.diag([1.0, 1.0, 1.0, -3.0])
        assert np.max(np.abs(comm - expected)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            commutator(Operator(np.eye(2)), Operator(np.eye(3)))


class TestSingleMode:
    def test_energy_diagonal_d4(self):
        sm = make_single_mode(1.0, 1.0, 4)
        diag = np.real(np.diag(sm.H.matrix))
        assert np.max(np.abs(diag - np.array([0.5, 1.5, 2.5, 1.5]))) <= 1e-12
        off = sm.H.matrix - np.diag(np.diag(sm.H.matrix))
        assert np.max(np.abs(off)) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 32])
    def test_lower_block_commutator(self, dim):
        hbar = 0.7
        sm = make_single_mode(1.9, hbar, dim)
        comm = commutator(sm.q, sm.p).matrix
        lower = comm[: dim - 1, : dim - 1]
        assert np.max(np.abs(lower - 1j * hbar * np.eye(dim - 1))) <= 1e-12

    def test_energy_combination_matches_definition(self):
        sm = make_single_mode(2.5, 1.0, 8)
        combo = (2.5**2 / 2.0) * (sm.q @ sm.q) + 0.5 * (sm.p @ sm.p)
        assert np.max(np.abs(sm.H.matrix - combo.matrix)) <= 1e-12

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            make_single_mode(0.0, 1.0, 4)
        with pytest.raises(DomainError):
            make_single_mode(1.0, -1.0, 4)
        with pytest.raises(DomainError):
            make_single_mode(1.0, 1.0, 1)

    @pytest.mark.parametrize("omega, hbar", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)])
    def test_nonfinite_parameters_rejected(self, omega, hbar):
        # omega = inf used to reach the eigensolver and fail with LinAlgError
        with pytest.raises(DomainError):
            make_single_mode(omega, hbar, 64)

    @pytest.mark.parametrize("omega, hbar", [(1e300, 1.0), (1.0, 1e308), (5e-324, 1.0)])
    def test_overflowing_parameters_rejected(self, omega, hbar):
        # omega**2 raised OverflowError; an inf or nan H failed in the
        # eigensolver with LinAlgError
        with pytest.raises(DomainError):
            make_single_mode(omega, hbar, 64)

    @pytest.mark.parametrize("call", [lambda dim: make_single_mode(1.0, 1.0, dim)])
    @pytest.mark.parametrize("dim", [2.5, 3.0, "3"])
    def test_dimension_must_be_an_int(self, call, dim):
        # np.zeros raised TypeError for 2.5
        with pytest.raises(DomainError, match="dimension must be an int >= "):
            call(dim)

    def test_numpy_int_dimension(self):
        assert make_single_mode(1.0, 1.0, np.int64(3)).dim == 3

    @pytest.mark.parametrize("dim", [2, 3, 16, 512])
    def test_banded_build_matches_dense_ladder(self, dim):
        omega, hbar = 2.5, 0.7
        sm = make_single_mode(omega, hbar, dim)
        a = annihilator(dim)
        adag = a.adjoint()
        q = np.sqrt(hbar / (2.0 * omega)) * (adag + a)
        p = 1j * np.sqrt(hbar * omega / 2.0) * (adag - a)
        assert np.array_equal(sm.q.matrix, q.matrix)
        assert np.array_equal(sm.p.matrix, p.matrix)
        h = sm.H.matrix
        dense = ((omega**2 / 2.0) * (q @ q) + 0.5 * (p @ p)).matrix
        assert np.max(np.abs(h - dense)) <= 1e-12 * np.max(np.abs(h))
        assert np.array_equal(h - h.conj().T, np.zeros_like(h))

    def test_ladder_action(self):
        a = annihilator(5).matrix
        for n in range(1, 5):
            column = a[:, n]
            assert column[n - 1] == pytest.approx(math.sqrt(n))
            assert np.count_nonzero(column) == 1


class TestGroundEnergy:
    def test_unit_mode(self):
        assert abs(ground_energy(make_single_mode(1.0, 1.0, 32)) - 0.5) <= 1e-10

    def test_scales_with_frequency(self):
        assert abs(ground_energy(make_single_mode(2.5, 1.0, 16)) - 1.25) <= 1e-10

    def test_strictly_positive(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            omega = float(rng.uniform(1e-3, 10.0))
            assert ground_energy(make_single_mode(omega, 1.0, 8)) > 0

    def test_spectrum_lower_levels(self):
        hbar = 1.3
        for dim in (2, 4, 8, 16, 32):
            sm = make_single_mode(0.8, hbar, dim)
            diag = np.sort(np.real(np.diag(sm.H.matrix)))
            expected = sorted(
                [hbar * 0.8 * (n + 0.5) for n in range(dim - 1)]
                + [hbar * 0.8 * (dim - 1) / 2.0]
            )
            assert np.max(np.abs(diag - np.array(expected))) <= 1e-10


class TestHermitianEigenvalues:
    def test_diagonal_short_circuit_matches_solver(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        herm = Operator(m + m.conj().T)
        dense = hermitian_eigenvalues(herm)
        diag = Operator(np.diag(np.linalg.eigvalsh(herm.matrix)).astype(complex))
        fast = hermitian_eigenvalues(diag)
        assert np.max(np.abs(dense - fast)) <= 1e-10

    @pytest.mark.parametrize(
        "matrix",
        [
            [[math.inf, 1.0], [1.0, 1.0]],  # the solver returned [nan nan]
            [[math.nan, 0.0], [0.0, 1.0]],  # the diagonal short cut returned [0, -0]
        ],
    )
    def test_nonfinite_operator_rejected(self, matrix):
        with pytest.raises(DomainError, match="finite"):
            hermitian_eigenvalues(Operator(np.array(matrix, dtype=complex)))

    def test_entry_modulus_beyond_the_double_range(self):
        # finite parts of 1.41e308 each: abs() of a list entry raised OverflowError
        q = make_single_mode(1.0, 1.0, 2).q
        big = 1e308 * q + 1e308 * q
        for op in (big + 1j * big, Operator((big + 1j * big).matrix)):
            with pytest.raises(DomainError, match=r"max \|entry\| = inf"):
                hermitian_eigenvalues(op)


ANY_NUMBER = st.sampled_from(EDGE_FLOATS + EDGE_INTS + [math.inf, -math.inf, math.nan]) | st.floats(
    allow_nan=False, allow_infinity=False)


class TestEdgeValues:
    """make_single_mode returns finite bands or raises an OptikitError."""

    @given(omega=ANY_NUMBER, hbar=ANY_NUMBER, dim=st.integers(-1, 64))
    @example(omega=10**400, hbar=1.0, dim=2)
    @settings(max_examples=300, deadline=None)
    def test_make_single_mode(self, omega, hbar, dim):
        try:
            sm = make_single_mode(omega, hbar, dim)
        except OptikitError:
            return
        assert all(np.isfinite(band).all() for op in (sm.q, sm.p, sm.H) for band in op.bands.values())

    @given(a=st.lists(ANY_NUMBER, min_size=4, max_size=4), b=st.lists(ANY_NUMBER, min_size=4, max_size=4))
    @example(a=[10**400, 0.0, 0.0, 1.0], b=[1.0, 0.0, 0.0, 1.0])
    @example(a=[1e308] * 4, b=[1e308] * 4)
    @example(a=[1e308, -1e308, 1e308, 1e308], b=[1e308, 1e308, -1e308, 1e308])
    @settings(max_examples=300, deadline=None)
    def test_operator_commutator_and_spectrum(self, a, b):
        ops = []
        for entries in (a, b):
            finite = all(abs(x) <= sys.float_info.max for x in entries)  # no NaN, inf or int past the range
            try:
                ops.append(Operator(np.array(entries, dtype=object).reshape(2, 2)))
            except OptikitError:
                assert not finite
                return
            assert finite
        for call in (commutator, lambda x, y: hermitian_eigenvalues(x)):
            try:
                out = call(*ops)
            except OptikitError:
                continue
            bands = out.bands.values() if isinstance(out, Operator) else [out]
            assert all(np.isfinite(band).all() for band in bands)

    @pytest.mark.parametrize("make", [
        lambda: math.inf * Operator(np.eye(2)),  # bands of inf+nanj
        lambda: math.nan * make_single_mode(1.0, 1.0, 4).q,
        lambda: Operator([[1e308]]) + Operator([[1e308]]),  # inf
        lambda: Operator([[1e308]]) - Operator([[-1e308]]),
        lambda: Operator([[1e200]]) @ Operator([[1e200]]),
        lambda: 1e308 * make_single_mode(1.0, 1e300, LIST_DIM).H,
        lambda: (lambda h: h - -3.0 * h)(make_single_mode(1.0, 1e308, 2).H),  # 5e307 + 1.5e308
        lambda: make_single_mode(1.0, 1e300, 4).q @ (1e200 * make_single_mode(1.0, 1e300, 4).p),
    ], ids=["inf-scalar", "nan-scalar-lists", "sum", "difference", "product", "scalar-lists", "sum-lists",
            "product-lists"])
    def test_arithmetic_keeps_entries_finite(self, make):
        # each escaped a RuntimeWarning, which the suite's filter makes an error, or held an inf or NaN
        with pytest.raises(DomainError, match="operator entries must be finite"):
            make()

    @pytest.mark.parametrize("dim", [LIST_DIM, LIST_DIM + 1])
    @pytest.mark.parametrize("scalar", [10**400, -(10**400)])
    def test_int_scalar_beyond_the_double_range(self, dim, scalar):
        # read as a signed infinity, as everywhere else in the package: OverflowError from
        # complex() on the list route and from numpy on the array route
        with pytest.raises(DomainError, match="operator entries must be finite"):
            scalar * make_single_mode(1.0, 1.0, dim).q

    def test_operator_reproducers(self):
        # np.asarray raised OverflowError
        with pytest.raises(DomainError, match="finite"):
            Operator(np.array([[10**400, 0], [0, 1]], dtype=object))
        # [a, a] of 1e308 entries was inf - inf = NaN, with a RuntimeWarning
        with pytest.raises(DomainError, match="commutator entries overflow"):
            commutator(Operator(np.full((3, 3), 1e308)), Operator(np.full((3, 3), 1e308)))


def band_reprs(op, zeros=True):
    """Each band of op, its entries by repr so that signed zeros count; the
    all-zero bands only where `zeros`."""
    return {k: repr([complex(z) for z in band]) for k, band in op.bands.items() if zeros or any(band)}


def outcome(call, zeros=True):
    """call()'s bands by repr, or the type and text of the OptikitError it raises."""
    try:
        return band_reprs(call(), zeros)
    except OptikitError as exc:
        return type(exc), str(exc)


class TestListRoute:
    """make_single_mode keeps a mode of D <= LIST_DIM levels in lists of Python
    complex.  Lifted to numpy arrays through the dense constructor, the same
    operators give the same bits, signed zeros included, or the same error."""

    def assert_routes_agree(self, omega, hbar, dim):
        assert dim <= LIST_DIM
        try:
            sm = make_single_mode(omega, hbar, dim)
        except OptikitError as exc:
            # parameter checks are shared, and an entry of H that overflows at D
            # overflows at every larger D: the array route fails alike
            with pytest.raises(type(exc)) as array_exc:
                make_single_mode(omega, hbar, LIST_DIM + 1)
            assert str(array_exc.value) == str(exc).replace(f"dim = {dim}", f"dim = {LIST_DIM + 1}")
            return
        assert all(isinstance(band, list) for op in (sm.q, sm.p, sm.H) for band in op.bands.values())
        q, p, h = (Operator(op.matrix) for op in (sm.q, sm.p, sm.H))
        assert all(isinstance(band, np.ndarray) for op in (q, p, h) for band in op.bands.values())
        # the dense constructor drops a band of zeros (p where hbar * omega underflows,
        # H's off-diagonals where they cancel): then only the bands with a nonzero entry are compared
        zeros = all(a.bands.keys() == b.bands.keys() for a, b in ((q, sm.q), (p, sm.p), (h, sm.H)))
        w2 = omega**2 / 2.0
        pairs = [
            (lambda: sm.q, lambda: q),
            (lambda: sm.p, lambda: p),
            (lambda: sm.H, lambda: w2 * (q @ q) + 0.5 * (p @ p)),
            (lambda: commutator(sm.q, sm.p), lambda: commutator(q, p)),
            (lambda: sm.q - sm.p.adjoint() + sm.H, lambda: q - p.adjoint() + h),
        ]
        for on_lists, on_arrays in pairs:
            assert outcome(on_lists, zeros) == outcome(on_arrays, zeros)
        # make_single_mode's own array route, on the levels a mode of LIST_DIM + 1
        # shares with this one: every entry but the top level's on the main band
        try:
            large = make_single_mode(omega, hbar, LIST_DIM + 1)
        except OptikitError:
            return  # H overflows on the larger mode's upper levels
        for small, big in ((sm.q, large.q), (sm.p, large.p), (sm.H, large.H)):
            assert all(isinstance(b, np.ndarray) for b in big.bands.values())
            for k, band in small.bands.items():
                n = len(band) - (k == 0)
                assert repr([complex(z) for z in band[:n]]) == repr([complex(z) for z in big.bands[k][:n]])

    @pytest.mark.parametrize("dim", range(2, LIST_DIM + 1))
    def test_mode_bits_match_the_array_route(self, dim):
        rng = random.Random(dim)
        draws = EDGE_FLOATS + [10.0 ** rng.uniform(-150.0, 150.0) for _ in range(4)]
        for omega in draws:
            for hbar in draws:
                if omega > 0 and hbar > 0 or rng.random() < 0.1:
                    self.assert_routes_agree(omega, hbar, dim)

    @settings(max_examples=200, deadline=None)
    @given(
        omega=st.floats(min_value=1e-150, max_value=1e150),
        hbar=st.floats(min_value=1e-150, max_value=1e150),
        dim=st.integers(min_value=2, max_value=LIST_DIM),
    )
    def test_random_modes(self, omega, hbar, dim):
        self.assert_routes_agree(omega, hbar, dim)

    @pytest.mark.parametrize("scalar", [-1.0, -0.5, -3.0, 2.0])
    @pytest.mark.parametrize("label", ["q", "p", "H"])
    def test_real_scalar_multiplies_as_a_complex(self, scalar, label):
        # numpy promotes the float to complex: Re = s x - 0 y, Im = s y + 0 x, so
        # -1.0 * (x + 0j) has Im = -0.0 + 0.0 = +0.0.  From Python 3.14 a
        # float x complex product is (s x, s y), Im -0.0: a list-route product
        # formed so fails here
        op = getattr(make_single_mode(1.3, 0.9, 6), label)
        expected = {k: repr([complex(scalar * z.real - 0.0 * z.imag, scalar * z.imag + 0.0 * z.real) for z in band])
                    for k, band in op.bands.items()}
        assert band_reprs(scalar * op) == band_reprs(scalar * Operator(op.matrix)) == expected
        mixed = {k: repr([complex(scalar * z.real, scalar * z.imag) for z in band]) for k, band in op.bands.items()}
        assert (mixed != expected) == (scalar < 0)

    def test_list_route_reaches_numpy_bytes(self):
        # a list band reads out as numpy's complex128 band of the same entries
        sm = make_single_mode(0.7, 2.0, LIST_DIM)
        for op in (sm.q, sm.p, sm.H, commutator(sm.q, sm.p)):
            for k, band in op.bands.items():
                assert band_bytes(band) == np.array(band, dtype=complex).tobytes() == Operator(op.matrix).bands[k].tobytes()

    @pytest.mark.parametrize("dim", [2, LIST_DIM, LIST_DIM + 1, 64])
    def test_spectrum_on_either_route(self, dim):
        sm = make_single_mode(1.3, 0.9, dim)
        values = hermitian_eigenvalues(sm.H)
        assert isinstance(values, list if dim <= LIST_DIM else np.ndarray)
        assert list(values) == sorted(np.real(np.diag(sm.H.matrix)).tolist())
        assert ground_energy(sm) == values[0]
