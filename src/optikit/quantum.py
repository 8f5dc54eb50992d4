"""Truncated single-mode quantum field on the number basis |0> .. |D-1>.

Position-like and momentum-like operators are built from ladder operators,

    a |n> = sqrt(n) |n-1>,
    q = sqrt(hbar/(2 omega)) (a^ + a),
    p = j sqrt(hbar omega/2) (a^ - a),
    H = (omega**2 / 2) q**2 + (1/2) p**2,

which makes H exactly diagonal: H[n][n] = hbar*omega*(n + 1/2) for
n < D - 1 and hbar*omega*(D-1)/2 at the top level.  The ground energy is
therefore exactly hbar*omega/2 for every D >= 2: the field carries energy
even with no excitation.

Truncation artifacts live only at the top Fock level: the commutator
[q, p] = q p - p q equals j*hbar on the lower (D-1)-dimensional block but
-(D-1)*j*hbar at level D-1.  Results quoted for the infinite-dimensional
mode hold on the lower block.

Cost and exactness of `make_single_mode`: q and p are tridiagonal with zero
diagonal and H is pentadiagonal (main and +-2 diagonals), so the build does
O(D) arithmetic on the ladder band sqrt(1), ..., sqrt(D-1) and only fills the
dense D x D matrices (16 D**2 bytes each) that `Operator` stores.  q and p are
bit-equal to the dense ladder construction sqrt(hbar/(2 omega)) (a^ + a) and
j sqrt(hbar omega/2) (a^ - a) from `annihilator`.  H is exactly Hermitian and
agrees with (omega**2/2) q @ q + (1/2) p @ p to rounding; `commutator` keeps
its own dense route, so the [q, p] check stays independent of this build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError

__all__ = [
    "StateVector",
    "InnerProduct",
    "Operator",
    "SingleMode",
    "commutator",
    "annihilator",
    "make_single_mode",
    "hermitian_eigenvalues",
    "ground_energy",
]


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex coefficients over the number basis.  Treated as immutable."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @classmethod
    def basis(cls, dim: int, n: int) -> "StateVector":
        """Number state |n> in a dim-dimensional truncation."""
        if not 0 <= n < dim:
            raise DomainError(f"basis index {n} outside 0..{dim - 1}")
        amps = np.zeros(dim, dtype=complex)
        amps[n] = 1.0
        return cls(amps)


@dataclass(frozen=True, eq=False)
class InnerProduct:
    """Sesquilinear pairing <x, y>, conjugate-linear in the first argument.

    weight, when given, must be Hermitian positive-definite; the pairing is
    then x^ W y.  The default identity weight is the usual Hermitian dot.
    """

    weight: np.ndarray | None = None

    def __call__(self, x: StateVector, y: StateVector) -> complex:
        if x.dim != y.dim:
            raise DimensionMismatch(f"dims {x.dim} and {y.dim} differ")
        if self.weight is None:
            return complex(np.vdot(x.amplitudes, y.amplitudes))
        return complex(np.vdot(x.amplitudes, self.weight @ y.amplitudes))


@dataclass(frozen=True, eq=False)
class Operator:
    """Linear operator as a dense complex matrix.  Treated as immutable."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError(f"operator matrix must be square, got shape {arr.shape}")
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def adjoint(self) -> "Operator":
        return Operator(self.matrix.conj().T)

    def __add__(self, other: "Operator") -> "Operator":
        return Operator(self.matrix + other.matrix)

    def __sub__(self, other: "Operator") -> "Operator":
        return Operator(self.matrix - other.matrix)

    def __matmul__(self, other: "Operator") -> "Operator":
        return Operator(self.matrix @ other.matrix)

    def __rmul__(self, scalar: complex) -> "Operator":
        return Operator(scalar * self.matrix)


def commutator(a: Operator, b: Operator) -> Operator:
    """[a, b] = a b - b a."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dims {a.dim} and {b.dim} differ")
    return Operator(a.matrix @ b.matrix - b.matrix @ a.matrix)


def annihilator(dim: int) -> Operator:
    """Lowering operator: a |n> = sqrt(n) |n-1>."""
    if dim < 1:
        raise DomainError(f"dimension must be >= 1, got {dim}")
    m = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        m[n - 1, n] = np.sqrt(n)
    return Operator(m)


@dataclass(frozen=True, eq=False)
class SingleMode:
    """Truncated single-mode field: frequency, action scale, and the three
    observables q, p, H."""

    omega: float
    hbar: float
    dim: int
    q: Operator
    p: Operator
    H: Operator


def _square_diagonal(band: np.ndarray) -> np.ndarray:
    """Diagonal of X @ X for Hermitian tridiagonal X with zero diagonal and
    off-diagonal magnitudes `band`: |x[n-1, n]|**2 + |x[n, n+1]|**2."""
    sq = band * band
    return np.concatenate(([0.0], sq)) + np.concatenate((sq, [0.0]))


def make_single_mode(omega: float, hbar: float = 1.0, dim: int = 32) -> SingleMode:
    """Build q, p, and the energy H = (omega**2/2) q**2 + (1/2) p**2.

    O(D) arithmetic from the ladder band; see the module docstring.  Raises
    DomainError when omega**2 or an entry of H leaves the double range.
    """
    if not 0 < omega < math.inf:
        raise DomainError(f"omega must be positive and finite, got {omega!r}")
    if not 0 < hbar < math.inf:
        raise DomainError(f"hbar must be positive and finite, got {hbar!r}")
    if dim < 2:
        raise DomainError(f"dimension must be >= 2, got {dim}")
    ladder = np.sqrt(np.arange(1, dim))  # a[n-1, n] = sqrt(n)
    q_band = np.sqrt(hbar / (2.0 * omega)) * ladder
    p_band = np.sqrt(hbar * omega / 2.0) * ladder
    n = np.arange(dim - 1)
    upper, lower = (n, n + 1), (n + 1, n)

    q = np.zeros((dim, dim), dtype=complex)
    q[upper] = q_band
    q[lower] = q_band
    p = np.zeros((dim, dim), dtype=complex)
    p.imag[upper] = -p_band
    p.imag[lower] = p_band

    try:
        w2 = omega**2 / 2.0
    except OverflowError:
        raise DomainError(f"omega**2 overflows for omega = {omega!r}") from None
    # q @ q and p @ p are real: their +-2 diagonals are q_n q_n+1 and
    # (-j p_n)(-j p_n+1) = -p_n p_n+1, with q_n, p_n the band entries
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        main = w2 * _square_diagonal(q_band) + 0.5 * _square_diagonal(p_band)
        second = w2 * (q_band[:-1] * q_band[1:]) - 0.5 * (p_band[:-1] * p_band[1:])
    if not (np.isfinite(main).all() and np.isfinite(second).all()):
        raise DomainError(f"H overflows for omega = {omega!r}, hbar = {hbar!r}, dim = {dim}")
    h = np.zeros((dim, dim), dtype=complex)
    diag = np.arange(dim)
    h[diag, diag] = main
    m = np.arange(dim - 2)
    h[m, m + 2] = second
    h[m + 2, m] = second
    return SingleMode(omega=omega, hbar=hbar, dim=dim, q=Operator(q), p=Operator(p), H=Operator(h))


def hermitian_eigenvalues(op: Operator) -> np.ndarray:
    """Ascending real spectrum of a Hermitian operator.

    Numerically diagonal matrices short-circuit to their sorted diagonal;
    everything else goes through the Hermitian eigensolver.
    """
    m = op.matrix
    scale = max(float(np.max(np.abs(m))), 1e-300)
    off = m - np.diag(np.diag(m))
    if float(np.max(np.abs(off))) <= 1e-12 * scale:
        return np.sort(np.real(np.diag(m)))
    return np.linalg.eigvalsh(m)


def ground_energy(sm: SingleMode) -> float:
    """Minimum eigenvalue of H: exactly hbar*omega/2 for this construction."""
    return float(hermitian_eigenvalues(sm.H)[0])
