"""Decision and guess problems solved by circuits with bounded advantage.

A problem instance fixes a partial function f on n-bit patterns. The
circuit runs on |b, 0...0> with the problem bits on the low-order qubits;
advantage is read off the worst-case probability of the correct answer
over the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import BLOCK_AMPS, Circuit, DomainError, basis_columns

# Unused here, but perfbench/spans.py wraps them by name in this module.
from .tensor import apply_circuit, measure_prefix  # noqa: F401


@dataclass(frozen=True)
class _Problem:
    """Partial function f on n-bit patterns with out_bits-bit values."""

    n: int
    f: dict

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need n >= 1, got {self.n}")
        if not self.f:
            raise DomainError("domain must be nonempty")
        table = {}
        for b, val in self.f.items():
            b, val = int(b), int(val)
            if not 0 <= b < 1 << self.n:
                raise DomainError(f"domain point {b} outside [0, {1 << self.n})")
            if not 0 <= val < 1 << self.out_bits:
                raise DomainError(f"value {val} outside [0, {1 << self.out_bits})")
            table[b] = val
        object.__setattr__(self, "f", table)

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(sorted(self.f))


class DecisionProblem(_Problem):
    """Partial boolean function on n-bit patterns."""

    out_bits = 1


class GuessProblem(_Problem):
    """Partial n-bit-valued function on n-bit patterns."""

    @property
    def out_bits(self) -> int:
        return self.n


@dataclass(frozen=True)
class Advantage:
    """Worst-case success probability and the advantage it buys (None when
    the circuit does no better than chance)."""

    p_star: float
    q: float | None


def _worst_case_prob(circuit: Circuit, problem: _Problem) -> float:
    """Smallest probability, over the domain, that the first
    problem.out_bits output bits read f(b) when the circuit runs on |b>;
    the inputs run through the circuit together, in blocks of at most
    BLOCK_AMPS amplitudes."""
    if circuit.n < problem.n:
        raise DomainError(f"circuit has {circuit.n} qubits, problem needs {problem.n}")
    domain = problem.domain
    per_block = max(1, BLOCK_AMPS >> circuit.n)
    p_star = 1.0
    for start in range(0, len(domain), per_block):
        inputs = domain[start:start + per_block]
        parts = basis_columns(circuit, inputs).view(float)  # the block is ours: square it in place
        sums = np.square(parts, out=parts).reshape(-1, 1 << problem.out_bits, 2 * len(inputs)).sum(axis=0)
        probs = sums[:, ::2] + sums[:, 1::2]
        wanted = probs[[problem.f[b] for b in inputs], np.arange(len(inputs))]
        p_star = min(p_star, float(wanted.min()))
    return p_star


def decision_advantage(circuit: Circuit, problem: DecisionProblem) -> Advantage:
    """Worst-case probability that the first output bit equals f(b).

    q = 1 / (2 p* - 1) when p* > 1/2, else None.
    """
    p_star = _worst_case_prob(circuit, problem)
    q = 1.0 / (2 * p_star - 1) if p_star > 0.5 else None
    return Advantage(p_star, q)


def guess_advantage(circuit: Circuit, problem: GuessProblem) -> Advantage:
    """Worst-case probability that the first n output bits read f(b).

    q = 1 / p* when p* > 0, else None.
    """
    p_star = _worst_case_prob(circuit, problem)
    q = 1.0 / p_star if p_star > 0 else None
    return Advantage(p_star, q)


def amplify_estimate(q: float, confidence: float, mode: str = "decision") -> int:
    """Repetitions driving the failure chance below 1 - confidence.

    decision mode: majority vote, Chernoff tail exp(-r / (2 q^2)).
    guess mode: independent trials, failure (1 - 1/q)^r.
    """
    if q < 1:
        raise DomainError(f"need q >= 1, got {q}")
    if not 0 < confidence < 1:
        raise DomainError(f"confidence must lie in (0, 1), got {confidence}")
    fail = 1 - confidence
    if mode == "decision":
        return max(1, math.ceil(2 * q * q * math.log(1 / fail)))
    if mode == "guess":
        if q == 1:
            return 1  # success is certain on every trial
        return max(1, math.ceil(math.log(fail) / math.log(1 - 1 / q)))
    raise DomainError(f"mode must be decision or guess, got {mode!r}")
