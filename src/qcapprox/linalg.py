"""Complex linear algebra kernels: SVD, null spaces, unitary eigensystems
(Schur vectors, already orthonormal), Gram-Schmidt, polar projection, and
congruence-matching unitaries.

Dense factorizations are delegated to LAPACK (numpy/scipy); the
constructions layered on top are implemented here.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .tensor import DomainError

NULL_SV_RTOL = 1e-10
RANK_TOL = 1e-12


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DomainError(f"{name} must be two-dimensional, got shape {m.shape}")
    return m


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD a = w @ diag-pad(s) @ vh, singular values descending.

    Returns (w, s, vh) with w, vh unitary and s the min(n, m) singular
    values. Non-convergence of the LAPACK iteration is reported explicitly.
    """
    m = _as_matrix(a)
    try:
        return np.linalg.svd(m, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"SVD did not converge within the iteration cap: {exc}") from exc


def null_space(a, min_dim: int = 0) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical null space of a.

    Takes the right singular vectors whose singular values are at most
    NULL_SV_RTOL times the largest one. Raises if fewer than min_dim
    survive.
    """
    m = _as_matrix(a)
    _, s, vh = svd(m)
    smax = s[0] if s.size else 0.0
    thresh = NULL_SV_RTOL * smax
    n_cols = m.shape[1]
    keep = [i for i in range(n_cols) if i >= s.size or s[i] <= thresh]
    if len(keep) < min_dim:
        raise DomainError(
            f"null space has {len(keep)} vectors below threshold, need {min_dim}"
        )
    return vh[keep, :].conj().T


def gram_schmidt(vectors, tol: float = 1e-10) -> list[np.ndarray]:
    """Modified Gram-Schmidt with a re-orthogonalization pass.

    Vectors whose residual drops below tol are discarded; the survivors
    come back orthonormal to machine precision.
    """
    basis: list[np.ndarray] = []
    for v in vectors:
        w = np.asarray(v, dtype=complex).copy()
        if w.ndim != 1:
            raise DomainError(f"expected vectors, got shape {w.shape}")
        for _ in range(2):  # second pass mops up cancellation error
            for b in basis:
                w -= np.vdot(b, w) * b
        norm = np.linalg.norm(w)
        if norm < tol:
            continue
        basis.append(w / norm)
    return basis


def eig_unitary(u) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of a unitary matrix.

    Uses the complex Schur form, whose triangular factor collapses to a
    diagonal for normal input, so the Schur vectors are the eigenvectors;
    they are unitary by construction, degenerate clusters included. Output
    is sorted by principal phase angle.
    """
    m = _as_matrix(u, "u")
    d = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise DomainError(f"u must be square, got {m.shape}")
    defect = np.linalg.norm(m.conj().T @ m - np.eye(d))
    if defect > 1e-8:
        raise DomainError(f"u is not unitary (Frobenius defect {defect:.3e})")
    t, z = scipy.linalg.schur(m, output="complex")
    lam = np.diag(t)
    order = np.argsort(np.angle(lam), kind="stable")
    return lam[order], z[:, order]


def nearest_unitary(a) -> np.ndarray:
    """Polar projection: the unitary factor w @ vh of the SVD of a.

    Minimizes the Frobenius distance to a over all unitaries. Requires a
    to be safely full rank.
    """
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DomainError(f"need a square matrix, got {m.shape}")
    w, s, vh = svd(m)
    if s[-1] <= RANK_TOL:
        raise DomainError(
            f"matrix is rank deficient (smallest singular value {s[-1]:.3e}); "
            "nearest unitary is not well determined"
        )
    return w @ vh


def _complete_to_basis(columns: np.ndarray) -> np.ndarray:
    """Unitary whose first columns span the orthonormal columns given."""
    return np.linalg.qr(columns, mode="complete")[0]


def unitary_from_congruence(x, y, tol: float = 1e-8) -> np.ndarray:
    """Unitary u with u @ x = y, given x*x = y*y (same Gram matrices).

    In the right singular coordinates of y the columns of both matrices
    are orthogonal with the same lengths d_i, so u is pinned on the
    normalized columns with d_i above the rank cut. On the unconstrained
    complement u is completed to the unitary closest to the identity
    (Procrustes on the complement overlap), a deterministic choice that
    returns exactly the identity when x equals y.
    """
    xm = _as_matrix(x, "x")
    ym = _as_matrix(y, "y")
    if xm.shape != ym.shape:
        raise DomainError(f"shape mismatch {xm.shape} vs {ym.shape}")
    scale = max(1.0, float(np.linalg.norm(xm)) ** 2)
    gram_gap = np.linalg.norm(xm.conj().T @ xm - ym.conj().T @ ym)
    if gram_gap > tol * scale:
        raise DomainError(
            f"x*x != y*y (Frobenius gap {gram_gap:.3e}); congruence precondition fails"
        )
    w, s, vh = svd(ym)
    xp = xm @ vh.conj().T  # columns orthogonal with lengths s_i
    smax = s[0] if s.size else 0.0
    r = int(np.count_nonzero(s > max(RANK_TOL, NULL_SV_RTOL * smax)))  # s descends
    sources = xp[:, :r] / s[:r]
    qs = _complete_to_basis(sources)[:, r:]
    qt = w[:, r:]  # the rest of w completes the targets w[:, :r]
    w2, _, v2h = svd(qs.conj().T @ qt)
    bridge = v2h.conj().T @ w2.conj().T  # maximizes Re tr((qs* qt) B)
    return w[:, :r] @ sources.conj().T + qt @ bridge @ qs.conj().T
