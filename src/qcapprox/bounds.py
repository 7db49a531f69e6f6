"""Closed-form complexity and approximation-counting bounds.

Everything is reported as a base-2 logarithm (of a count ratio or measure
fraction), so nothing overflows; clipping a fraction into [0, 1] happens
only at presentation time. The one exact-rational formula (the dimension
counting lower bound) is computed with Fraction arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from .tensor import DomainError

_SQRT2 = math.sqrt(2.0)
B_CAP = 1 << 63


def _safe_float(value) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf


def thm34_lower(n: int, k: int) -> Fraction:
    """Exact lower bound k (2^(n+1) - k)/9 - n/3 - 1/9 on the number of
    two-qubit gates needed to act transitively on k basis states.

    May be negative (vacuous) for small k.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not 0 <= k <= 1 << n:
        raise DomainError(f"need 0 <= k <= 2**n, got k={k}")
    return Fraction(k * ((1 << (n + 1)) - k), 9) - Fraction(n, 3) - Fraction(1, 9)


def _log2_rho(x: float) -> float:
    # rho(x) = x sqrt(1 - x^2/4), the chord-to-measure radius map
    return math.log2(x) + 0.5 * math.log2(1 - x * x / 4)


def thm41_log2(
    n: int,
    k: int,
    g: int,
    b: int,
    eps: float,
    alpha: float,
    variant: str = "proof",
) -> float:
    """log2 of the bound on the fraction of orthonormal k-sequences
    approximable within eps (weak two-norm) by size-b circuits of
    g-qubit gates.

    variant="proof" uses the tighter grouping
        b (2^(4g) (log2 b + log2(2/(alpha eps))) + log2 n) - k (...)
    and variant="displayed" the looser one that also multiplies log2 n
    by 2^(4g).
    """
    _check_common(n, k, g, b, eps, alpha)
    delta = (1 + alpha) * eps
    if delta >= _SQRT2:
        raise DomainError(f"need (1+alpha) eps < sqrt(2), got {delta}")
    gate_term = math.log2(b) + math.log2(2 / (alpha * eps))
    if variant == "proof":
        count = b * ((1 << (4 * g)) * gate_term + math.log2(n))
    elif variant == "displayed":
        count = (1 << (4 * g)) * b * (gate_term + math.log2(n))
    else:
        raise DomainError(f"variant must be proof or displayed, got {variant!r}")
    ball = k * ((2.0**n) * (-_log2_rho(delta)) + math.log2(1 - delta * delta / 2))
    return count - ball


def thm45_log2(
    n: int,
    k: int,
    l: int,
    g: int,
    b: int,
    eps: float,
    alpha: float,
    sharp: bool = False,
) -> float:
    """log2 of the bound on the fraction of k-sequences approximable
    within eps in the first-l-bit total-variation sense by size-b
    circuits.

    sharp=True replaces the printed ball factor k 2^(l-1) by the proof's
    k (2^l - 1), which can only shrink the bound.
    """
    _check_common(n, k, g, b, eps, alpha)
    if not 1 <= l <= n:
        raise DomainError(f"need 1 <= l <= n, got l={l}")
    delta = 2 * (1 + alpha) * eps
    if delta >= 1:
        raise DomainError(f"need 2 (1+alpha) eps < 1, got {delta}")
    count = b * ((1 << (4 * g)) * (math.log2(b) + math.log2(4 / (alpha * eps))) + math.log2(n))
    factor = k * ((1 << l) - 1) if sharp else k * (1 << (l - 1))
    return count - factor * (-math.log2(delta))


def thm51_log2(n: int, d_size: int, g: int, b: int, q: float) -> float:
    """log2 of the fraction of decision oracles f on a domain of d_size
    points for which some size-b circuit reaches advantage q."""
    _check_oracle(n, d_size, g, b, q)
    count = (math.log2(b) + math.log2(q) + math.log2(n)) * b * (1 << (4 * g + 1))
    return count - _safe_float(d_size)


def thm53_log2(n: int, d_size: int, g: int, b: int, q: float) -> float:
    """log2 of the fraction of guess oracles on d_size points for which
    some size-b circuit guesses f(b) with advantage q.

    Vacuous (exponent >= 0 after clipping) unless n > log2(4q).
    """
    _check_oracle(n, d_size, g, b, q)
    count = (math.log2(b) + math.log2(q) + math.log2(n)) * b * (1 << (4 * g + 1))
    return count - (n - math.log2(4 * q)) * _safe_float(d_size)


def _check_common(n: int, k: int, g: int, b: int, eps: float, alpha: float):
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if k < 0:
        raise DomainError(f"need k >= 0, got {k}")
    if g < 1:
        raise DomainError(f"need g >= 1, got {g}")
    if b < 1:
        raise DomainError(f"need b >= 1, got {b}")
    if not (eps > 0 and alpha > 0):
        raise DomainError(f"need eps > 0 and alpha > 0, got eps={eps}, alpha={alpha}")


def _check_oracle(n: int, d_size: int, g: int, b: int, q: float):
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if d_size < 0:
        raise DomainError(f"need d_size >= 0, got {d_size}")
    if g < 2:
        raise DomainError(f"need g >= 2, got {g}")
    if b < 2:
        raise DomainError(f"need b >= 2, got {b}")
    if not 1 < q < math.inf:
        raise DomainError(f"need finite q > 1, got {q}")


def clipped_fraction(log2_value: float) -> float:
    """Presentation helper: 2**log2_value clipped into [0, 1]."""
    if log2_value >= 0:
        return 1.0
    return 2.0**log2_value


def crossover_b(
    log2_fn: Callable[[int], float],
    target: float = 1.0,
    b_min: int = 2,
    b_cap: int = B_CAP,
) -> int:
    """Smallest b >= b_min at which the clipped fraction reaches target.

    log2_fn maps b to the bound's base-2 exponent and must be increasing
    in b (spot-checked on a geometric grid before searching).
    """
    if not 0 < target <= 1:
        raise DomainError(f"target must lie in (0, 1], got {target}")
    goal = math.log2(target)

    probe = b_min
    grid = []
    while probe <= b_cap:
        grid.append(probe)
        probe *= 8
    vals = [log2_fn(b) for b in grid]
    for lo, hi in zip(vals, vals[1:]):
        if hi < lo:
            raise DomainError("bound is not increasing in b on the probe grid")

    if log2_fn(b_min) >= goal:
        return b_min
    lo = b_min  # fails
    hi = None
    for b, v in zip(grid, vals):
        if v >= goal:
            hi = b
            break
        lo = b
    if hi is None:
        raise DomainError(f"bound never reaches target {target} for b up to {b_cap}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if log2_fn(mid) >= goal:
            hi = mid
        else:
            lo = mid
    return hi
