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

Cost and exactness: an `Operator` stores its nonzero diagonals and builds its
dense D x D form (16 D**2 bytes) on the first read of `.matrix`.  q and p are
tridiagonal, so building the mode, the spectrum of its diagonal H and [q, p]
cost O(D).  Each entry of q @ p, p @ q, q @ q and p @ p sums at most two
nonzero terms, so the band products round as a dense product summed term by
term does, whatever the BLAS kernel; the closed form [q, p] above, top level
included, is their independent check.  `Operator` is a plain class, for that
cached `.matrix`; the other records are `core.Value`s equal only to themselves.
"""

from __future__ import annotations

import math
from functools import cached_property, partialmethod

import numpy as np

from .core import Value, _positive
from .errors import DimensionMismatch, DomainError

__all__ = [
    "StateVector",
    "InnerProduct",
    "Operator",
    "SingleMode",
    "commutator",
    "make_single_mode",
    "hermitian_eigenvalues",
    "ground_energy",
]


class StateVector(Value):
    """Complex coefficients over the number basis.  Treated as immutable."""

    __slots__ = ("amplitudes",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, amplitudes: np.ndarray) -> None:
        object.__setattr__(self, "amplitudes", np.asarray(amplitudes, dtype=complex))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


class InnerProduct(Value):
    """Sesquilinear pairing <x, y>, conjugate-linear in the first argument.

    weight, when given, must be Hermitian positive-definite; the pairing is
    then x^ W y.  The default identity weight is the usual Hermitian dot.
    """

    __slots__ = ("weight",)
    _defaults = (None,)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __call__(self, x: StateVector, y: StateVector) -> complex:
        if x.dim != y.dim:
            raise DimensionMismatch(f"dims {x.dim} and {y.dim} differ")
        if self.weight is None:
            return complex(np.vdot(x.amplitudes, y.amplitudes))
        return complex(np.vdot(x.amplitudes, self.weight @ y.amplitudes))


class Operator:
    """Linear operator stored as its nonzero diagonals, of finite entries
    (DomainError otherwise).  Treated as immutable.

    `bands[k]` holds the entries m[r, r + k] in row order (numpy's diagonal k);
    `matrix`, the dense form, is built on first access and kept.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        try:
            arr = np.asarray(matrix, dtype=complex)
        except OverflowError:  # an int entry beyond the double range
            raise DomainError("operator entries must be finite, got an int beyond the double range") from None
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError(f"operator matrix must be square, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise DomainError("operator entries must be finite")
        rows, cols = np.nonzero(arr)
        self.dim = arr.shape[0]
        self.bands = {int(k): arr.diagonal(k).copy() for k in np.unique(cols - rows)}

    @classmethod
    def _from_bands(cls, dim: int, bands: dict[int, np.ndarray]) -> "Operator":
        op = cls.__new__(cls)
        op.dim, op.bands = dim, bands
        return op

    @cached_property
    def matrix(self) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for k, band in self.bands.items():
            rows = np.arange(band.size) + max(0, -k)
            m[rows, rows + k] = band
        return m

    def _same_dim(self, other: "Operator") -> int:
        if self.dim != other.dim:
            raise DimensionMismatch(f"dims {self.dim} and {other.dim} differ")
        return self.dim

    def adjoint(self) -> "Operator":
        return Operator._from_bands(self.dim, {-k: band.conj() for k, band in self.bands.items()})

    def _combine(self, other: "Operator", op) -> "Operator":
        dim, keys = self._same_dim(other), self.bands.keys() | other.bands.keys()
        # a missing band is the scalar 0.0, so every entry sees the dense a op b
        return Operator._from_bands(dim, {k: op(self.bands.get(k, 0.0), other.bands.get(k, 0.0)) for k in keys})

    __add__ = partialmethod(_combine, op=np.add)
    __sub__ = partialmethod(_combine, op=np.subtract)

    def __matmul__(self, other: "Operator") -> "Operator":
        # (a b)[r, r + s + t] sums a[r, r + s] b[r + s, r + s + t] over band pairs (s, t),
        # on the rows r where all three indices lie in 0..D-1; band j starts at row max(0, -j)
        dim, out = self._same_dim(other), {}
        for s, a in self.bands.items():
            for t, b in other.bands.items():
                k = s + t
                lo, hi = max(0, -s, -k), min(dim, dim - s, dim - k)
                if lo < hi:
                    n, a0, b0, c0 = hi - lo, lo - max(0, -s), lo + s - max(0, -t), lo - max(0, -k)
                    if k not in out:
                        out[k] = np.zeros(dim - abs(k), dtype=complex)
                    out[k][c0 : c0 + n] += a[a0 : a0 + n] * b[b0 : b0 + n]
        return Operator._from_bands(dim, out)

    def __rmul__(self, scalar: complex) -> "Operator":
        return Operator._from_bands(self.dim, {k: scalar * band for k, band in self.bands.items()})


@np.errstate(over="ignore", invalid="ignore")  # a non-finite entry is raised below
def commutator(a: Operator, b: Operator) -> Operator:
    """[a, b] = a b - b a; DomainError where an entry overflows double precision."""
    out = a @ b - b @ a
    if not np.isfinite(np.concatenate([np.zeros(0), *out.bands.values()])).all():  # one call for every band
        raise DomainError("commutator entries overflow double precision")
    return out


class SingleMode(Value):
    """Truncated single-mode field: frequency, action scale, and the three
    observables q, p, H."""

    __slots__ = ("omega", "hbar", "dim", "q", "p", "H")
    __eq__, __hash__ = object.__eq__, object.__hash__


def make_single_mode(omega: float, hbar: float = 1.0, dim: int = 32) -> SingleMode:
    """Build q, p, and the energy H = (omega**2/2) q**2 + (1/2) p**2.

    O(D) arithmetic from the ladder band; see the module docstring.  Raises
    DomainError when omega**2 or an entry of H leaves the double range.
    """
    (omega,) = _positive("omega", omega)
    (hbar,) = _positive("hbar", hbar)
    if not (isinstance(dim, (int, np.integer)) and dim >= 2):
        raise DomainError(f"dimension must be an int >= 2, got {dim!r}")
    ladder = np.sqrt(np.arange(1, dim))  # a[n-1, n] = sqrt(n)
    q_band = np.sqrt(hbar / (2.0 * omega)) * ladder
    p_band = np.sqrt(hbar * omega / 2.0) * ladder
    q = Operator._from_bands(dim, dict.fromkeys((-1, 1), q_band.astype(complex)))
    p_upper = np.zeros(dim - 1, dtype=complex)
    p_upper.imag = -p_band  # assigned: 1j times an overflowed band would hold 0 * inf = nan
    p = Operator._from_bands(dim, {-1: p_upper.conj(), 1: p_upper})

    try:
        w2 = omega**2 / 2.0
    except OverflowError:
        raise DomainError(f"omega**2 overflows for omega = {omega!r}") from None
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        h = w2 * (q @ q) + 0.5 * (p @ p)
    if not all(np.isfinite(band).all() for band in h.bands.values()):
        raise DomainError(f"H overflows for omega = {omega!r}, hbar = {hbar!r}, dim = {dim}")
    return SingleMode(omega=omega, hbar=hbar, dim=dim, q=q, p=p, H=h)


def hermitian_eigenvalues(op: Operator) -> np.ndarray:
    """Ascending real spectrum of a Hermitian operator.

    Numerically diagonal operators short-circuit to their sorted main band;
    everything else goes through the Hermitian eigensolver.  DomainError for
    a non-finite entry or an eigenvalue beyond the double range.
    """
    peaks = {k: np.max(np.abs(band)) for k, band in op.bands.items()}  # a NaN entry keeps its peak NaN
    scale = max(float(np.max(list(peaks.values()), initial=0.0)), 1e-300)
    if not scale < math.inf:
        raise DomainError(f"operator entries must be finite, got max |entry| = {scale!r}")
    off = [peak for k, peak in peaks.items() if k != 0]
    if float(np.max(off, initial=0.0)) <= 1e-12 * scale:
        return np.sort(np.real(op.bands.get(0, np.zeros(op.dim))))
    values = np.linalg.eigvalsh(op.matrix)
    if not np.isfinite(values).all():
        raise DomainError(f"eigenvalues overflow double precision: {values!r}")
    return values


def ground_energy(sm: SingleMode) -> float:
    """Minimum eigenvalue of H: exactly hbar*omega/2 for this construction."""
    return float(hermitian_eigenvalues(sm.H)[0])
