import numpy as np
import pytest

from qcapprox.linalg import svd
from qcapprox.metrics import (
    frobenius_norm,
    tv_operators,
    tv_states,
    two_norm,
    weak_two_norm,
)
from qcapprox.tensor import DomainError, StateVec
from helpers import haar_unitary, random_state

X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_frobenius_trivials():
    assert frobenius_norm(np.eye(4)) == 2.0
    assert frobenius_norm(np.zeros((3, 3))) == 0.0


def test_frobenius_trace_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    want = np.sqrt(np.linalg.eigvalsh(a.conj().T @ a).sum())
    assert abs(frobenius_norm(a) - want) < 1e-12


def test_two_norm_trivials():
    assert abs(two_norm(np.eye(5)) - 1.0) < 1e-12
    a = np.diag([np.exp(1j * np.pi), 1.0]) - np.eye(2)
    assert abs(two_norm(a) - 2.0) < 1e-12


def test_two_norm_random_probe_oracle():
    # probes never exceed the reported norm, and the top right singular
    # vector attains it exactly; random probes at this count typically land
    # within a few percent, so the lower band is loose
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    result = two_norm(a)
    probe_max = 0.0
    for _ in range(10_000):
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        x /= np.linalg.norm(x)
        probe_max = max(probe_max, float(np.linalg.norm(a @ x)))
    assert probe_max <= result + 1e-9
    assert probe_max >= result - 0.1
    _, s, vh = svd(a)
    witness = vh[0].conj()
    assert abs(np.linalg.norm(a @ witness) - result) < 1e-9


def test_weak_two_norm_trivials():
    assert weak_two_norm(np.eye(2) - np.eye(2), 1) == 0.0
    assert abs(weak_two_norm(X - np.eye(2), 1) - np.sqrt(2)) < 1e-12


def test_weak_two_norm_column_oracle_and_monotonicity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        t2 = two_norm(a)
        prev = 0.0
        for k in range(1, d + 1):
            wk = weak_two_norm(a, k)
            assert abs(wk - max(np.linalg.norm(a[:, j]) for j in range(k))) < 1e-12
            assert wk >= prev - 1e-12
            assert wk <= t2 + 1e-12
            prev = wk


def test_weak_two_norm_domain():
    with pytest.raises(DomainError):
        weak_two_norm(np.eye(2), 0)
    with pytest.raises(DomainError):
        weak_two_norm(np.eye(2), 3)


def test_tv_states_trivials():
    u = random_state(2, np.random.default_rng(3))
    assert tv_states(u, u, 1) == 0.0
    assert tv_states(StateVec.zero(1), StateVec.basis(1, 1), 1) == 2.0
    plus = StateVec(1, np.array([1.0, 1.0]) / np.sqrt(2))
    assert abs(tv_states(plus, StateVec.zero(1), 1) - 1.0) < 1e-12


def test_tv_states_phase_blind():
    # a seminorm: global phase changes are invisible
    u = random_state(2, np.random.default_rng(4))
    v = StateVec(2, u.amps * np.exp(0.37j))
    assert tv_states(u, v, 2) < 1e-12


def test_tv_states_dimension_mismatch():
    with pytest.raises(DomainError):
        tv_states(StateVec.zero(1), StateVec.zero(2), 1)


def test_tv_operators_trivials():
    rng = np.random.default_rng(5)
    u = haar_unitary(4, rng)
    assert tv_operators(u, u, 1, 2) == 0.0
    assert tv_operators(np.eye(2), X, 1, 1) == 2.0


def test_tv_operators_componentwise_oracle():
    rng = np.random.default_rng(6)
    u = haar_unitary(8, rng)
    v = haar_unitary(8, rng)
    got = tv_operators(u, v, 2, 3)
    want = max(
        tv_states(StateVec(3, u[:, b]), StateVec(3, v[:, b]), 2) for b in range(3)
    )
    assert got == want


def _random_state_pair(n, rng):
    u = random_state(n, rng)
    # perturb and renormalize so distances spread over a useful range
    amps = u.amps + rng.normal(scale=0.3, size=1 << n) * (
        1 + 1j * rng.normal(size=1 << n)
    ) * 0.3
    amps /= np.linalg.norm(amps)
    return u, StateVec(n, amps)


def test_tv_prefix_monotone_and_euclidean_bound():
    # v_l(u,v) <= v_{l+1}(u,v) and v_l(u,v) <= 2 |u - v|
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        u, v = _random_state_pair(n, rng)
        gap = 2 * np.linalg.norm(u.amps - v.amps)
        prev = 0.0
        for l in range(1, n + 1):
            tv = tv_states(u, v, l)
            assert tv >= prev - 1e-10
            assert tv <= gap + 1e-10
            prev = tv


def test_norm_chain_and_weak_tv_bound():
    # ||A||_{2,k} <= ||A||_2 <= ||A||_F; weak norms grow in k;
    # v_{l,k} <= v_{l+1,k+1} and v_{l,k} <= 2 ||U-V||_{2,k}
    rng = np.random.default_rng(8)
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        d = 1 << n
        u = haar_unitary(d, rng)
        v = haar_unitary(d, rng)
        a = u - v
        t2, tf = two_norm(a), frobenius_norm(a)
        assert t2 <= tf + 1e-10
        k = int(rng.integers(1, d))
        assert weak_two_norm(a, k) <= weak_two_norm(a, k + 1) + 1e-10
        assert weak_two_norm(a, k) <= t2 + 1e-10
        l = int(rng.integers(1, n))
        assert tv_operators(u, v, l, k) <= tv_operators(u, v, l + 1, k + 1) + 1e-10
        assert tv_operators(u, v, l, k) <= 2 * weak_two_norm(a, k) + 1e-10


def test_product_approximation_error():
    # ||U1 U2 - V1 V2||_{2,k} <= ||U1 - V1||_2 + ||U2 - V2||_2
    rng = np.random.default_rng(9)
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        d = 1 << n
        u1, u2 = haar_unitary(d, rng), haar_unitary(d, rng)
        v1, v2 = haar_unitary(d, rng), haar_unitary(d, rng)
        k = int(rng.integers(1, d + 1))
        lhs = weak_two_norm(u1 @ u2 - v1 @ v2, k)
        rhs = two_norm(u1 - v1) + two_norm(u2 - v2)
        assert lhs <= rhs + 1e-10


def test_metric_triangle_and_symmetry():
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = int(rng.integers(2, 4))
        d = 1 << n
        a, b, c = (haar_unitary(d, rng) for _ in range(3))
        k = int(rng.integers(1, d + 1))
        l = int(rng.integers(1, n + 1))
        for dist in (
            lambda p, q: frobenius_norm(p - q),
            lambda p, q: two_norm(p - q),
            lambda p, q: weak_two_norm(p - q, k),
            lambda p, q: tv_operators(p, q, l, k),
        ):
            assert abs(dist(a, b) - dist(b, a)) < 1e-10
            assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-10
        su, sv, sw = (random_state(n, rng) for _ in range(3))
        assert abs(tv_states(su, sv, l) - tv_states(sv, su, l)) < 1e-12
        assert tv_states(su, sw, l) <= tv_states(su, sv, l) + tv_states(sv, sw, l) + 1e-10
