import math

import numpy as np
import pytest

from optikit.errors import DimensionMismatch, DomainError
from optikit.quantum import (
    InnerProduct,
    Operator,
    StateVector,
    annihilator,
    commutator,
    ground_energy,
    hermitian_eigenvalues,
    make_single_mode,
)


def random_state(rng, dim):
    return StateVector(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


class TestInnerProduct:
    def test_basis_states_orthogonal(self):
        e0 = StateVector.basis(4, 0)
        e1 = StateVector.basis(4, 1)
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
            InnerProduct()(StateVector.basis(2, 0), StateVector.basis(3, 0))

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


class TestSelfAdjoint:
    def test_mode_observables_are(self):
        sm = make_single_mode(1.3, 1.0, 8)
        for op in (sm.q, sm.p, sm.H):
            m = op.matrix
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12


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
