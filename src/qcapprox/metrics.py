"""Operator norms and total-variation distances between quantum behaviors.

The weak norms only look at the first k basis columns, matching circuits
judged on a k-transitive action; the tv distances compare what measuring
the first l bits can see.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .tensor import DomainError, StateVec, measure_prefix


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


def two_norm(a) -> float:
    """Largest singular value: sup over unit x of |a x|."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DomainError(f"two_norm needs a matrix, got shape {m.shape}")
    _, s, _ = linalg.svd(m)
    return float(s[0]) if s.size else 0.0


def weak_two_norm(a, k: int) -> float:
    """Max Euclidean norm of the first k columns: sup of |a x| over unit x
    supported on the first k basis vectors is attained at a column."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DomainError(f"weak_two_norm needs a matrix, got shape {m.shape}")
    if not 1 <= k <= m.shape[1]:
        raise DomainError(f"k={k} out of range [1, {m.shape[1]}]")
    return float(np.linalg.norm(m[:, :k], axis=0).max())


def tv_states(u: StateVec, v: StateVec, l: int) -> float:
    """Total variation between the first-l-bit outcome distributions.

    Ranges over [0, 2]; no 1/2 factor.
    """
    if u.n != v.n:
        raise DomainError(f"states on {u.n} and {v.n} qubits")
    pu = measure_prefix(u, l).probs
    pv = measure_prefix(v, l).probs
    return float(np.abs(pu - pv).sum())


def _column_state(m: np.ndarray, b: int) -> StateVec:
    n = int(m.shape[0]).bit_length() - 1
    return StateVec(n, m[:, b])


def tv_operators(u, v, l: int, k: int) -> float:
    """Max over the first k basis inputs of the tv distance of outputs."""
    um = np.asarray(u, dtype=complex)
    vm = np.asarray(v, dtype=complex)
    if um.shape != vm.shape or um.ndim != 2 or um.shape[0] != um.shape[1]:
        raise DomainError(f"need equal square matrices, got {um.shape} and {vm.shape}")
    dim = um.shape[0]
    if dim & (dim - 1) or dim == 0:
        raise DomainError(f"dimension {dim} is not a power of two")
    if not 1 <= k <= dim:
        raise DomainError(f"k={k} out of range [1, {dim}]")
    return max(tv_states(_column_state(um, b), _column_state(vm, b), l) for b in range(k))


@dataclass(frozen=True)
class MetricKind:
    """Named metric selector used by the command-line interface."""

    tag: str  # frobenius | two | weak2 | tv-states | tv-ops
    l: int | None = None
    k: int | None = None

    def __post_init__(self):
        tags = ("frobenius", "two", "weak2", "tv-states", "tv-ops")
        if self.tag not in tags:
            raise DomainError(f"unknown metric {self.tag!r}, expected one of {tags}")
        if self.tag in ("weak2", "tv-ops") and self.k is None:
            raise DomainError(f"metric {self.tag} needs k")
        if self.tag in ("tv-states", "tv-ops") and self.l is None:
            raise DomainError(f"metric {self.tag} needs l")

    def between_matrices(self, a, b) -> float:
        if self.tag == "tv-states":
            raise DomainError(f"metric {self.tag} compares states, not matrices")
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape:
            raise DomainError(f"need matrices of equal shape, got {a.shape} and {b.shape}")
        if self.tag == "tv-ops":
            return tv_operators(a, b, self.l, self.k)
        if self.tag == "frobenius":
            return frobenius_norm(a - b)
        if self.tag == "two":
            return two_norm(a - b)
        return weak_two_norm(a - b, self.k)

    def between_states(self, u: StateVec, v: StateVec) -> float:
        if self.tag != "tv-states":
            raise DomainError(f"metric {self.tag} compares matrices, not states")
        return tv_states(u, v, self.l)
