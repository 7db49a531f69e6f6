"""Shared test utilities: random unitaries, states and circuits."""

import numpy as np

from qcapprox import Circuit, ControlledGate, LocalGate, PhaseOnZero, StateVec


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with the phase
    convention that makes the factorization unique."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_state(n: int, rng: np.random.Generator) -> StateVec:
    z = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVec(n, z / np.linalg.norm(z))


def random_gate(n: int, rng: np.random.Generator):
    kind = rng.integers(0, 3)
    if kind == 0:
        g = int(rng.integers(1, min(n, 3) + 1))
        positions = tuple(int(q) for q in rng.choice(n, size=g, replace=False))
        return LocalGate(positions, haar_unitary(1 << g, rng))
    if kind == 1 and n >= 2:
        c = int(rng.integers(1, n))
        picks = [int(q) for q in rng.choice(n, size=c + 1, replace=False)]
        controls = tuple((q, int(rng.integers(0, 2))) for q in picks[:-1])
        return ControlledGate(controls, picks[-1], haar_unitary(2, rng))
    return PhaseOnZero(float(rng.uniform(-np.pi, np.pi)))


def random_circuit(n: int, b: int, rng: np.random.Generator) -> Circuit:
    return Circuit(n, tuple(random_gate(n, rng) for _ in range(b)))


def assert_same_circuit(got: Circuit, want: Circuit) -> None:
    """Same qubit count and, gate by gate, the same kind, wires and
    bit-identical matrix or angle."""
    assert got.n == want.n
    assert len(got.gates) == len(want.gates)
    for g1, g2 in zip(want.gates, got.gates):
        assert type(g1) is type(g2)
        if isinstance(g1, LocalGate):
            assert g1.positions == g2.positions
            assert np.array_equal(g1.matrix, g2.matrix)
        elif isinstance(g1, ControlledGate):
            assert g1.controls == g2.controls
            assert g1.target == g2.target
            assert np.array_equal(g1.matrix, g2.matrix)
        else:
            assert g1.w == g2.w
