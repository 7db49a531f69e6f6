"""Finite delta-nets over g-qubit unitaries.

Every matrix entry is rounded onto a real/imaginary axis grid over
[-1, 1]; the grid matrix is then polar-projected back onto the unitary
group. Rounding moves a unitary by at most rho per entry (Frobenius
rho * 2**g in total) and the projection at most doubles that, so the
derived rho = delta / 2**(g+1) yields a delta-covering in the two-norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import linalg
from .tensor import DomainError

ITERATION_CAP = 1 << 24
DIGIT_CAP = 4300  # Python's default limit on decimal digits printed from an int


@dataclass(frozen=True)
class NetSpec:
    """Grid parameters for the net over 2**g x 2**g unitaries.

    rho defaults to delta / 2**(g+1), the covering choice. An explicit
    larger rho coarsens the grid; the covering radius is then 2 * rho * 2**g
    instead of delta.
    """

    g: int
    delta: float
    rho: float | None = None

    def __post_init__(self):
        if self.g < 1:
            raise DomainError(f"need g >= 1, got {self.g}")
        if not 0 < self.delta < 2:
            raise DomainError(f"delta must lie in (0, 2), got {self.delta}")
        rho = self.delta / (2 * self.dim) if self.rho is None else float(self.rho)
        if not 0 < rho < math.inf:
            raise DomainError(f"rho must be finite and positive, got {rho}")
        object.__setattr__(self, "rho", rho)

    @property
    def dim(self) -> int:
        return 1 << self.g

    @property
    def axis_points(self) -> int:
        """Points per real axis: spacing at most sqrt(2) * rho covers [-1, 1]."""
        return max(1, math.ceil(2.0 / (math.sqrt(2.0) * self.rho)))

    @property
    def num_axes(self) -> int:
        return 2 * self.dim * self.dim  # one real + one imaginary per entry


def _axis_values(spec: NetSpec) -> np.ndarray:
    step = 2.0 / spec.axis_points
    return -1.0 + (np.arange(spec.axis_points) + 0.5) * step


def _exceeds_digit_cap(log10_base: float, exponent: int) -> bool:
    """Whether base**exponent has more than DIGIT_CAP decimal digits,
    decided from the logarithm without taking the power."""
    return log10_base > 0 and exponent >= DIGIT_CAP / log10_base


def _grid_count(spec: NetSpec) -> int:
    return spec.axis_points ** spec.num_axes


def net_cardinality(spec: NetSpec) -> tuple[int, int]:
    """(exact grid count, closed-form bound ceil((2/delta)^(16**g))).

    Both are arbitrary-precision integers; the closed form is evaluated in
    exact rational arithmetic before taking the ceiling. Refused when
    either would exceed DIGIT_CAP decimal digits.
    """
    exponent = 16**spec.g
    log10_ratio = math.log1p((2.0 - spec.delta) / spec.delta) / math.log(10)  # accurate near delta = 2
    if _exceeds_digit_cap(log10_ratio, exponent):
        raise DomainError(
            f"closed-form bound (2/delta)^(16^g) exceeds {DIGIT_CAP} decimal digits"
        )
    if _exceeds_digit_cap(math.log10(spec.axis_points), spec.num_axes):
        raise DomainError(f"grid count exceeds {DIGIT_CAP} decimal digits")
    ratio = Fraction(2) / Fraction(spec.delta)
    return _grid_count(spec), math.ceil(ratio**exponent)


def paper_entry_count(spec: NetSpec) -> int:
    """Per-entry value count 1/(2 rho^2) claimed in the source analysis,
    aggregated over all 4**g entries. Kept for comparison; it undercounts
    a genuine covering of the unit square (about 2/rho^2 points)."""
    per_entry = math.ceil(1.0 / (2.0 * spec.rho**2))
    return per_entry ** (spec.dim * spec.dim)


def decode_index(spec: NetSpec, index: int) -> np.ndarray:
    """Grid matrix for a mixed-radix index (row-major, real digit first)."""
    exact = _grid_count(spec)
    if not 0 <= index < exact:
        raise DomainError(f"index {index} out of range [0, {exact})")
    digits = []
    rem = index
    for _ in range(spec.num_axes):
        digits.append(rem % spec.axis_points)
        rem //= spec.axis_points
    digits.reverse()
    d = spec.dim
    return _axis_values(spec)[digits].view(complex).reshape(d, d)  # re, im per entry


def _grid_index(spec: NetSpec, a, clamp: bool) -> int:
    """Mixed-radix index (row-major, real digit first) of the grid digits
    nearest to a's entries. With clamp, entries must lie in the unit
    square and digits are clamped onto the grid; without it, every entry
    must sit on a grid value."""
    m = np.asarray(a, dtype=complex)
    d = spec.dim
    if m.shape != (d, d):
        raise DomainError(f"expected shape {(d, d)}, got {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError("entries must be finite")
    if clamp and (np.abs(m.real).max() > 1 + 1e-9 or np.abs(m.imag).max() > 1 + 1e-9):
        raise DomainError("entries must lie in the unit square [-1, 1]^2")
    step = 2.0 / spec.axis_points
    index = 0
    for x in np.ascontiguousarray(m).view(np.float64).ravel().tolist():  # re, im per entry
        digit = int(round((x + 1.0) / step - 0.5))
        if clamp:
            digit = min(max(digit, 0), spec.axis_points - 1)
        elif not 0 <= digit < spec.axis_points:
            raise DomainError(f"entry value {x!r} falls outside the grid")
        elif abs((-1.0 + (digit + 0.5) * step) - x) > 1e-9:
            raise DomainError(f"entry value {x!r} is not a grid value")
        index = index * spec.axis_points + digit
    return index


def encode_matrix(spec: NetSpec, a) -> int:
    """Inverse of decode_index for matrices whose entries sit on the grid."""
    return _grid_index(spec, a, clamp=False)


def nearest_net_index(spec: NetSpec, u) -> int:
    """Index of the grid matrix nearest to u (entrywise rounding)."""
    return _grid_index(spec, u, clamp=True)


def net_point(spec: NetSpec, index: int) -> np.ndarray:
    """The net's unitary for an index: polar projection of the grid matrix."""
    a = decode_index(spec, index)
    try:
        return linalg.nearest_unitary(a)
    except DomainError as exc:
        raise DomainError(f"grid matrix at index {index} is rank deficient: {exc}") from exc


def iter_net_indices(spec: NetSpec) -> Iterator[int]:
    """All indices, smallest first. Refused above 2**24 points."""
    exact = _grid_count(spec)
    if exact > ITERATION_CAP:
        raise DomainError(f"net has {exact} points, iteration capped at {ITERATION_CAP}")
    return iter(range(exact))


def circuit_structure_count(n: int, g: int, b: int) -> int:
    """Number of ways to choose gate supports for b gates of arity g on n
    qubits: C(n, g)**b, exact."""
    if not 1 <= g <= n:
        raise DomainError(f"need 1 <= g <= n, got g={g}, n={n}")
    if b < 0:
        raise DomainError(f"need b >= 0, got {b}")
    return math.comb(n, g) ** b
