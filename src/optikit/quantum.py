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

Cost and exactness: an `Operator` stores its nonzero diagonals, as lists of Python
complex for a mode of D <= `LIST_DIM` levels and as numpy arrays otherwise, and
builds its dense D x D form (16 D**2 bytes) on the first read of `.matrix`.  q and p
are tridiagonal, so the mode, the spectrum of its diagonal H and [q, p] cost O(D).
Each entry of q @ p, p @ q, q @ q and p @ p sums at most two nonzero terms; the closed
form [q, p] above, top level included, is the band products' independent check.  Both
routes run one band plan, each product complex x complex as in numpy's scalar loop (a
float x complex one rounds zeros apart from Python 3.14).  On arrays, a product whose
term underflows can keep a zero's sign under numpy's fused SIMD multiply, where the
list route drops it; CI pins only the bands of q, p, H and [q, p], bit for bit with
signed zeros, across SIMD targets.  numpy loads with an array only: `.matrix`, the
eigensolver, `Operator(matrix)`, `StateVector`, `InnerProduct`.  `Operator` is a plain
class, for that cached `.matrix`; the others are `core.Value`s equal only to themselves.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from contextlib import nullcontext
from functools import cached_property

from .core import Value, _checkable, _positive
from .errors import DimensionMismatch, DomainError

__all__ = ["LIST_DIM", "StateVector", "InnerProduct", "Operator", "SingleMode", "commutator", "make_single_mode",
           "hermitian_eigenvalues", "ground_energy"]

# the largest D kept in lists: `optikit quantum` at its default --dim runs without numpy's import
LIST_DIM = 32


def _complex(values: object, what: str, ndim: int):
    """values as an ndim-D numpy complex array of finite entries; DomainError otherwise."""
    import numpy as np
    try:
        arr = np.asarray(values, dtype=complex)
    except OverflowError:  # an int entry beyond the double range
        raise DomainError(f"{what} must be finite, got an int beyond the double range") from None
    if arr.ndim != ndim or not np.isfinite(arr).all():
        raise DomainError(f"{what} must be finite and {ndim}-D, got shape {arr.shape}")
    return arr


class StateVector(Value):
    """Complex coefficients over the number basis, 1-D and finite (DomainError otherwise).  Treated as immutable."""

    __slots__ = ("amplitudes",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, amplitudes: object) -> None:
        object.__setattr__(self, "amplitudes", _complex(amplitudes, "state amplitudes", 1))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


class InnerProduct(Value):
    """Sesquilinear pairing <x, y>, conjugate-linear in the first argument.

    weight, when given, must be Hermitian positive-definite; the pairing is
    then x^ W y.  The default identity weight is the usual Hermitian dot.
    DimensionMismatch for a weight not dim x dim, DomainError for a non-finite weight or pairing.
    """

    __slots__ = ("weight",)
    _defaults = (None,)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __call__(self, x: StateVector, y: StateVector) -> complex:
        import numpy as np
        if x.dim != y.dim:
            raise DimensionMismatch(f"dims {x.dim} and {y.dim} differ")
        wy = y.amplitudes
        if self.weight is not None:
            weight = _complex(self.weight, "inner product weight", 2)
            if weight.shape != (x.dim, x.dim):
                raise DimensionMismatch(f"weight of shape {weight.shape} for dim {x.dim}")
            wy = weight @ wy
        out = complex(np.vdot(x.amplitudes, wy))
        if not cmath.isfinite(out):
            raise DomainError("inner product overflows double precision")
        return out


class _Band(list):
    """A band on the list route, of Python complex entries, with what `Operator` uses of a
    numpy band: entrywise `+`, `-` and `*`, a scalar `*`, slices and `conj`."""

    __add__ = __iadd__ = lambda a, b: _Band(map(operator.add, a, b)) if isinstance(b, list) else NotImplemented
    __sub__ = lambda a, b: _Band(map(operator.sub, a, b)) if isinstance(b, list) else NotImplemented
    __mul__ = lambda a, b: _Band(map(operator.mul, a, b)) if isinstance(b, list) else NotImplemented
    __rmul__ = lambda a, scalar: _Band(map(complex(scalar).__mul__, a))  # complex x complex, as numpy's
    __getitem__ = lambda a, i: _Band(list.__getitem__(a, i)) if isinstance(i, slice) else list.__getitem__(a, i)
    conj = lambda a: _Band(map(complex.conjugate, a))


def _checked(make, message: str = "operator entries must be finite") -> "Operator":
    """make(), with numpy's overflow and invalid warnings off; DomainError(message) where an entry is not finite."""
    np = sys.modules.get("numpy")  # loaded wherever a band is an array
    with np.errstate(over="ignore", invalid="ignore") if np else nullcontext():
        op = make()
    if all(all(map(cmath.isfinite, b)) if isinstance(b, list) else np.isfinite(b).all() for b in op.bands.values()):
        return op
    raise DomainError(message)


class Operator:
    """Linear operator stored as its nonzero diagonals, of finite entries
    (DomainError otherwise).  Treated as immutable.

    `bands[k]` holds the entries m[r, r + k] in row order (numpy's diagonal k), an array or
    a list (module docstring); `matrix`, the dense form, is built on first access and kept.
    """

    def __init__(self, matrix: object) -> None:
        arr = _complex(matrix, "operator matrix", 2)
        if arr.shape[0] != arr.shape[1]:
            raise DomainError(f"operator matrix must be square, got shape {arr.shape}")
        rows, cols = arr.nonzero()
        self.dim, self.bands = arr.shape[0], {k: arr.diagonal(k).copy() for k in sorted(set((cols - rows).tolist()))}

    @classmethod
    def _from_bands(cls, dim: int, bands: dict) -> "Operator":
        op = cls.__new__(cls)
        op.dim, op.bands = dim, bands
        return op

    @cached_property
    def matrix(self):
        import numpy as np
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for k, band in self.bands.items():
            rows = np.arange(len(band)) + max(0, -k)
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
        # a band one side lacks is complex zeros, so every entry sees the dense a op b
        band = lambda bands, k: bands[k] if k in bands else _Band([0j] * (dim - abs(k)))
        return Operator._from_bands(dim, {k: op(band(self.bands, k), band(other.bands, k)) for k in keys})

    def _product(self, other: "Operator") -> "Operator":
        # (a b)[r, r + s + t] sums a[r, r + s] b[r + s, r + s + t] over band pairs (s, t),
        # on the rows r where all three indices lie in 0..D-1; band j starts at row max(0, -j)
        dim, out, np = self._same_dim(other), {}, sys.modules.get("numpy")  # loaded wherever a band is an array
        lists = all(isinstance(band, list) for band in [*self.bands.values(), *other.bands.values()])
        for s, a in self.bands.items():
            for t, b in other.bands.items():
                k = s + t
                lo, hi = max(0, -s, -k), min(dim, dim - s, dim - k)
                if lo < hi:
                    n, a0, b0, c0 = hi - lo, lo - max(0, -s), lo + s - max(0, -t), lo - max(0, -k)
                    if k not in out:
                        out[k] = _Band([0j] * (dim - abs(k))) if lists else np.zeros(dim - abs(k), dtype=complex)
                    out[k][c0 : c0 + n] += a[a0 : a0 + n] * b[b0 : b0 + n]
        return Operator._from_bands(dim, out)

    def _scaled(self, scalar: complex) -> "Operator":
        return Operator._from_bands(self.dim, {k: scalar * band for k, band in self.bands.items()})

    __add__ = lambda self, other: _checked(lambda: self._combine(other, operator.add))
    __sub__ = lambda self, other: _checked(lambda: self._combine(other, operator.sub))
    __matmul__ = lambda self, other: _checked(lambda: self._product(other))
    __rmul__ = lambda self, scalar: _checked(lambda: self._scaled(_checkable(scalar)))  # an int past the range: +-inf


def commutator(a: Operator, b: Operator) -> Operator:
    """[a, b] = a b - b a; DomainError where an entry overflows double precision."""
    return _checked(lambda: a._product(b)._combine(b._product(a), operator.sub),
                    "commutator entries overflow double precision")


class SingleMode(Value):
    """Truncated single-mode field: frequency, action scale, and the three observables q, p, H."""

    __slots__ = ("omega", "hbar", "dim", "q", "p", "H")
    __eq__, __hash__ = object.__eq__, object.__hash__


def make_single_mode(omega: float, hbar: float = 1.0, dim: int = 32) -> SingleMode:
    """Build q, p, and the energy H = (omega**2/2) q**2 + (1/2) p**2.

    O(D) arithmetic from the ladder band, in lists up to `LIST_DIM` levels (module
    docstring).  Raises DomainError when omega**2 or an entry of H leaves the double range.
    """
    (omega,) = _positive("omega", omega)
    (hbar,) = _positive("hbar", hbar)
    if not (isinstance(dim, (int, getattr(sys.modules.get("numpy"), "integer", int))) and dim >= 2):
        raise DomainError(f"dimension must be an int >= 2, got {dim!r}")
    cq, cp = math.sqrt(hbar / (2.0 * omega)), math.sqrt(hbar * omega / 2.0)  # q = cq (a^ + a), p = j cp (a^ - a)
    if dim <= LIST_DIM:
        ladder = [math.sqrt(n) for n in range(1, dim)]  # a[n-1, n] = sqrt(n)
        q_band, p_upper = _Band(complex(cq * x) for x in ladder), _Band(complex(0.0, -cp * x) for x in ladder)
    else:
        import numpy as np
        ladder = np.sqrt(np.arange(1, dim))
        q_band, p_upper = (cq * ladder).astype(complex), np.zeros(dim - 1, dtype=complex)
        p_upper.imag = -cp * ladder  # assigned: 1j times an overflowed band would hold 0 * inf = nan
    q = Operator._from_bands(dim, dict.fromkeys((-1, 1), q_band))
    p = Operator._from_bands(dim, {-1: p_upper.conj(), 1: p_upper})
    try:
        w2 = omega**2 / 2.0
    except OverflowError:
        raise DomainError(f"omega**2 overflows for omega = {omega!r}") from None
    h = _checked(lambda: q._product(q)._scaled(w2)._combine(p._product(p)._scaled(0.5), operator.add),
                 f"H overflows for omega = {omega!r}, hbar = {hbar!r}, dim = {dim}")
    return SingleMode(omega=omega, hbar=hbar, dim=dim, q=q, p=p, H=h)


def hermitian_eigenvalues(op: Operator):
    """Ascending real spectrum of a Hermitian operator (a list on the list route).

    Numerically diagonal operators short-circuit to their sorted main band;
    everything else goes through the Hermitian eigensolver.  DomainError for
    a non-finite entry or an eigenvalue beyond the double range.
    """
    _checked(lambda: op)  # DomainError for an inf or NaN entry
    peaks = {k: max(math.hypot(z.real, z.imag) for z in b) if isinstance(b, list) else float(abs(b).max())
             for k, b in op.bands.items()}  # each band's largest |entry|, inf where it leaves the double range
    scale = max([*peaks.values(), 1e-300])
    if not scale < math.inf:
        raise DomainError(f"operator entries must be finite, got max |entry| = {scale!r}")
    main = op.bands.get(0, [0.0] * op.dim)
    if max([peak for k, peak in peaks.items() if k] + [0.0]) <= 1e-12 * scale:
        return sorted(z.real for z in main) if isinstance(main, list) else sys.modules["numpy"].sort(main.real)
    import numpy as np
    values = np.linalg.eigvalsh(op.matrix)
    if not np.isfinite(values).all():
        raise DomainError(f"eigenvalues overflow double precision: {values!r}")
    return values


def ground_energy(sm: SingleMode) -> float:
    """Minimum eigenvalue of H: exactly hbar*omega/2 for this construction."""
    return float(hermitian_eigenvalues(sm.H)[0])
