import numpy as np
import pytest

from qcapprox.linalg import (
    eig_unitary,
    gram_schmidt,
    nearest_unitary,
    null_space,
    svd,
    unitary_from_congruence,
)
from qcapprox.tensor import DomainError
from helpers import haar_unitary


def test_svd_matches_eigenvalue_oracle():
    # singular values squared are the eigenvalues of A^H A
    rng = np.random.default_rng(0)
    for _ in range(20):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        w, s, vh = svd(a)
        eigs = np.sort(np.linalg.eigvalsh(a.conj().T @ a))[::-1]
        k = min(m, n)
        assert np.allclose(s[:k] ** 2, np.clip(eigs[:k], 0, None), atol=1e-10)
        assert np.allclose(w @ np.diag(s) @ vh if m == n else
                           w[:, :k] @ np.diag(s[:k]) @ vh[:k], a, atol=1e-10)
        assert np.allclose(w.conj().T @ w, np.eye(m), atol=1e-10)
        assert np.allclose(vh @ vh.conj().T, np.eye(n), atol=1e-10)


def test_svd_descending_order():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 5))
    _, s, _ = svd(a)
    assert all(s[i] >= s[i + 1] for i in range(4))


def test_null_space_residual_and_orthonormality():
    rng = np.random.default_rng(2)
    for _ in range(20):
        k, m = int(rng.integers(1, 4)), int(rng.integers(4, 9))
        a = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
        z = null_space(a, m - k)
        assert z.shape == (m, m - k)
        assert np.linalg.norm(a @ z) <= 1e-9 * max(1.0, np.linalg.norm(a))
        assert np.allclose(z.conj().T @ z, np.eye(m - k), atol=1e-10)


def test_null_space_min_dim_error():
    with pytest.raises(DomainError):
        null_space(np.eye(3), 1)


def test_null_space_of_shifted_projector():
    # rows of V - [I 0] are orthogonal to the fixed subspace of the extension
    rng = np.random.default_rng(3)
    k, m = 3, 8
    v = haar_unitary(m, rng)[:k, :]
    z = null_space(v - np.hstack([np.eye(k), np.zeros((k, m - k))]), m - k + 0)
    assert np.linalg.norm((v - np.hstack([np.eye(k), np.zeros((k, m - k))])) @ z) < 1e-9


def test_gram_schmidt_orthonormal_and_span():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = int(rng.integers(2, 8))
        k = int(rng.integers(1, m + 1))
        vecs = [rng.normal(size=m) + 1j * rng.normal(size=m) for _ in range(k)]
        q = np.column_stack(gram_schmidt(vecs))
        assert q.shape == (m, k)
        assert np.allclose(q.conj().T @ q, np.eye(k), atol=1e-10)
        # same span: projectors agree
        a = np.column_stack(vecs)
        pa = a @ np.linalg.pinv(a)
        pq = q @ q.conj().T
        assert np.allclose(pa, pq, atol=1e-8)


def test_gram_schmidt_drops_dependent_vectors():
    v = np.array([1.0, 0.0, 0.0], dtype=complex)
    q = gram_schmidt([v, 2 * v, np.array([0, 1j, 0], dtype=complex)])
    assert len(q) == 2


def test_eig_unitary_reconstruction():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(2, 9))
        u = haar_unitary(m, rng)
        lam, v = eig_unitary(u)
        assert np.allclose(np.abs(lam), 1.0, atol=1e-10)
        assert np.allclose(v.conj().T @ v, np.eye(m), atol=1e-10)
        assert np.linalg.norm(u @ v - v @ np.diag(lam)) <= 1e-9


def test_eig_unitary_degenerate_spectrum():
    # heavily repeated eigenvalues still give an orthonormal eigenbasis
    rng = np.random.default_rng(6)
    for phases in (
        [0, 0, 0, np.pi],
        [0.3, 0.3, 0.3, 0.3],
        [0, 1e-9, 2.0, 2.0],
        [np.pi - 1e-9, -np.pi + 1e-9, 0.5, 0.5],  # a pair straddling the -1 cut
    ):
        q = haar_unitary(4, rng)
        u = q @ np.diag(np.exp(1j * np.array(phases))) @ q.conj().T
        lam, v = eig_unitary(u)
        assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-9)
        assert np.linalg.norm(u @ v - v @ np.diag(lam)) <= 1e-8
        got = np.sort(np.angle(lam))
        want = np.sort(np.angle(np.exp(1j * np.array(phases))))
        assert np.allclose(got, want, atol=1e-7)


def test_eig_unitary_rejects_nonunitary():
    with pytest.raises(DomainError):
        eig_unitary(np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex))


def test_nearest_unitary_is_unitary_and_optimal():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        u = nearest_unitary(a)
        assert np.allclose(u.conj().T @ u, np.eye(m), atol=1e-10)
        base = np.linalg.norm(a - u)
        # random search over 1000 unitaries never beats the projection
        for _ in range(1000 // 50):
            cand = haar_unitary(m, rng)
            assert np.linalg.norm(a - cand) >= base - 1e-9
        # small perturbations of u don't beat it either
        for _ in range(20):
            h = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            h = (h - h.conj().T) / 2
            cand = u @ np.asarray(
                np.linalg.matrix_power(np.eye(m) + 0.01 * h / np.linalg.norm(h), 1)
            )
            cand = nearest_unitary(cand)
            assert np.linalg.norm(a - cand) >= base - 1e-9


def test_nearest_unitary_fixes_unitary_input():
    rng = np.random.default_rng(8)
    u = haar_unitary(6, rng)
    assert np.allclose(nearest_unitary(u), u, atol=1e-12)


def test_nearest_unitary_rank_deficient():
    with pytest.raises(DomainError):
        nearest_unitary(np.zeros((2, 2), dtype=complex))


def test_congruence_identity_when_x_equals_y():
    rng = np.random.default_rng(9)
    for m in (1, 2, 4, 8):
        for k in range(1, m + 1):
            x = rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
            u = unitary_from_congruence(x, x)
            assert np.allclose(u, np.eye(m), atol=1e-9)


def test_congruence_full_rank_negation():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u = unitary_from_congruence(x, -x)
    assert np.allclose(u, -np.eye(4), atol=1e-9)


def test_congruence_tall_thin_pair():
    # two columns living in a 4-dim space, y = r @ x for a known unitary
    rng = np.random.default_rng(11)
    r = haar_unitary(4, rng)
    x = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    y = r @ x
    u = unitary_from_congruence(x, y)
    assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-9)
    assert np.linalg.norm(u @ x - y) <= 1e-8


def test_congruence_random_pairs():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(300):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, m + 1))
        x = rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
        if rng.random() < 0.3 and k > 1:
            x[:, k - 1] = x[:, 0] * (0.5 + 0.5j)  # force rank deficiency
        r = haar_unitary(m, rng)
        y = r @ x
        u = unitary_from_congruence(x, y)
        assert np.allclose(u.conj().T @ u, np.eye(m), atol=1e-9)
        worst = max(worst, np.linalg.norm(u @ x - y))
    assert worst <= 1e-7


def test_congruence_rejects_incongruent():
    x = np.eye(2, dtype=complex)
    y = 2 * np.eye(2, dtype=complex)
    with pytest.raises(DomainError):
        unitary_from_congruence(x, y)


def test_congruence_deterministic():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    r = haar_unitary(5, rng)
    y = r @ x
    u1 = unitary_from_congruence(x, y)
    u2 = unitary_from_congruence(x.copy(), y.copy())
    assert np.array_equal(u1, u2)
