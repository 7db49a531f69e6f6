import numpy as np
import pytest

from qcapprox import problems
from qcapprox.problems import (
    Advantage,
    DecisionProblem,
    GuessProblem,
    amplify_estimate,
    decision_advantage,
    guess_advantage,
)
from qcapprox.tensor import (
    Circuit,
    ControlledGate,
    DomainError,
    LocalGate,
    StateVec,
    apply_circuit,
    circuit_to_matrix,
    measure_prefix,
)
from helpers import haar_unitary, random_circuit

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_problem_validation():
    with pytest.raises(DomainError):
        DecisionProblem(2, {})
    with pytest.raises(DomainError):
        DecisionProblem(2, {4: 0})  # point outside range
    with pytest.raises(DomainError):
        DecisionProblem(2, {1: 2})  # value not a bit
    with pytest.raises(DomainError):
        GuessProblem(2, {1: 4})  # value needs n bits
    p = GuessProblem(2, {3: 1, 0: 2})
    assert p.domain == (0, 3)


def test_decision_identity_circuit():
    # f(b) = low bit of b: the identity circuit answers perfectly
    n = 3
    problem = DecisionProblem(n, {b: b & 1 for b in range(1 << n)})
    adv = decision_advantage(Circuit(n, ()), problem)
    assert adv.p_star == 1.0
    assert adv.q == 1.0


def test_decision_hadamard_no_advantage():
    problem = DecisionProblem(1, {0: 0, 1: 1})
    adv = decision_advantage(Circuit(1, (LocalGate((0,), H),)), problem)
    assert abs(adv.p_star - 0.5) < 1e-12
    assert adv.q is None


def test_decision_matches_amplitude_oracle():
    # recompute p* from the full unitary: p_b = sum over outputs whose low
    # bit is f(b) of |U[out, b]|^2
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        nprime = n + int(rng.integers(0, 2))
        circuit = random_circuit(nprime, 4, rng)
        size = int(rng.integers(1, (1 << n) + 1))
        domain = rng.choice(1 << n, size=size, replace=False)
        f = {int(b): int(rng.integers(0, 2)) for b in domain}
        problem = DecisionProblem(n, f)
        adv = decision_advantage(circuit, problem)
        u = circuit_to_matrix(circuit)
        p_star = 1.0
        for b, val in f.items():
            p_b = sum(
                abs(u[out, b]) ** 2
                for out in range(1 << nprime)
                if (out & 1) == val
            )
            p_star = min(p_star, p_b)
        assert abs(adv.p_star - p_star) < 1e-12
        if p_star > 0.5:
            assert adv.q is not None
            assert abs(adv.q - 1 / (2 * p_star - 1)) < 1e-9
        else:
            assert adv.q is None


def test_guess_identity_circuit():
    problem = GuessProblem(2, {b: b for b in range(4)})
    adv = guess_advantage(Circuit(2, ()), problem)
    assert adv.p_star == 1.0 and adv.q == 1.0


def test_guess_bit_flip_zero_advantage():
    # circuit computes the bitwise NOT, f is the identity: never correct
    n = 2
    gates = tuple(LocalGate((q,), X) for q in range(n))
    problem = GuessProblem(n, {b: b for b in range(1 << n)})
    adv = guess_advantage(Circuit(n, gates), problem)
    assert adv.p_star == 0.0
    assert adv.q is None


def test_guess_matches_amplitude_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = 2
        nprime = int(rng.integers(2, 5))
        circuit = random_circuit(nprime, 4, rng)
        domain = rng.choice(1 << n, size=int(rng.integers(1, 5)), replace=False)
        f = {int(b): int(rng.integers(0, 1 << n)) for b in domain}
        problem = GuessProblem(n, f)
        adv = guess_advantage(circuit, problem)
        u = circuit_to_matrix(circuit)
        p_star = 1.0
        for b, val in f.items():
            p_b = sum(
                abs(u[out, b]) ** 2
                for out in range(1 << nprime)
                if out % (1 << n) == val
            )
            p_star = min(p_star, p_b)
        assert abs(adv.p_star - p_star) < 1e-12


def reference_p_star(circuit, problem, l):
    return min(
        float(measure_prefix(apply_circuit(circuit, StateVec.basis(circuit.n, b)), l).probs[val])
        for b, val in problem.f.items()
    )


def test_advantage_matches_per_input_loop(monkeypatch):
    rng = np.random.default_rng(4)
    for block_amps in (problems.BLOCK_AMPS, 16):  # one block, then several
        monkeypatch.setattr(problems, "BLOCK_AMPS", block_amps)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            circuit = random_circuit(n + int(rng.integers(0, 2)), 5, rng)
            domain = [int(b) for b in rng.choice(1 << n, size=int(rng.integers(1, (1 << n) + 1)),
                                                  replace=False)]
            decision = DecisionProblem(n, {b: int(rng.integers(0, 2)) for b in domain})
            guess = GuessProblem(n, {b: int(rng.integers(0, 1 << n)) for b in domain})
            got = decision_advantage(circuit, decision).p_star
            assert abs(got - reference_p_star(circuit, decision, 1)) < 1e-12
            got = guess_advantage(circuit, guess).p_star
            assert abs(got - reference_p_star(circuit, guess, n)) < 1e-12


def test_advantage_dimension_mismatch():
    problem = DecisionProblem(3, {0: 0})
    with pytest.raises(DomainError):
        decision_advantage(Circuit(2, ()), problem)


def test_decision_invariant_under_high_bit_gates():
    # extra gates on qubits >= 1 are invisible to the first-bit measurement
    rng = np.random.default_rng(2)
    for _ in range(20):
        circuit = random_circuit(3, 3, rng)
        problem = DecisionProblem(2, {b: int(rng.integers(0, 2)) for b in range(4)})
        base = decision_advantage(circuit, problem)
        extra = LocalGate((1, 2), haar_unitary(4, rng))
        extended = Circuit(3, circuit.gates + (extra,))
        after = decision_advantage(extended, problem)
        assert abs(base.p_star - after.p_star) < 1e-12


def test_decision_sensitive_to_first_bit_gates():
    # sanity: a final X on qubit 0 flips a perfect decider into a worthless one
    problem = DecisionProblem(1, {0: 0, 1: 1})
    flipped = Circuit(1, (LocalGate((0,), X),))
    adv = decision_advantage(flipped, problem)
    assert adv.p_star == 0.0 and adv.q is None


def test_controlled_circuit_decision():
    # CNOT copies the control to the target; deciding the high bit from
    # the low output bit works when the input low bit starts at 0
    cnot = ControlledGate(((1, 1),), 0, X)
    problem = DecisionProblem(2, {0: 0, 2: 1})
    adv = decision_advantage(Circuit(2, (cnot,)), problem)
    assert adv.p_star == 1.0 and adv.q == 1.0


def test_amplify_guess_mode():
    assert amplify_estimate(1.0, 0.99, mode="guess") == 1
    assert amplify_estimate(2.0, 0.99, mode="guess") == 7


def test_amplify_decision_scales_quadratically():
    base = amplify_estimate(2.0, 0.95, mode="decision")
    for q in (4.0, 8.0, 16.0):
        r = amplify_estimate(q, 0.95, mode="decision")
        ratio = r / base
        assert abs(ratio - (q / 2.0) ** 2) / (q / 2.0) ** 2 < 0.01


def test_amplify_domain():
    with pytest.raises(DomainError):
        amplify_estimate(0.5, 0.9)
    with pytest.raises(DomainError):
        amplify_estimate(2.0, 1.0)
    with pytest.raises(DomainError):
        amplify_estimate(2.0, 0.9, mode="vote")


def test_advantage_dataclass():
    a = Advantage(0.75, 2.0)
    assert a.p_star == 0.75 and a.q == 2.0
