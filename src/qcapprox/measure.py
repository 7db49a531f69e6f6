"""Uniform-measure sampling on spheres and simplices, volume bounds for
metric balls, and the Monte-Carlo experiments that validate them.

All randomness flows through counter-based Philox streams keyed by
(seed, stream id): identical keys reproduce identical draws, and the
experiments consume one jumped substream per fixed-size chunk, so hit
counts aggregate independently of evaluation order or parallel schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .linalg import gram_schmidt
from .synthesis import OrthoSeq
from .tensor import DomainError, StateVec

CHUNK = 1 << 16
# Most entries one Monte-Carlo chunk buffer may hold (rows x dimension):
# 32 MiB of float64, so a sphere-cap call holds at most 128 MiB of buffers.
MC_BUFFER_CAP = 1 << 22
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class RngStream:
    """Reproducible random source: a Philox generator keyed by (seed, stream)."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            v = getattr(self, name)
            if not 0 <= int(v) < 1 << 64:
                raise DomainError(f"{name} must be a u64, got {v}")

    def _bitgen(self) -> Philox:
        return Philox(key=np.array([self.seed, self.stream], dtype=np.uint64))

    def generator(self) -> Generator:
        return Generator(self._bitgen())

    def chunk_generator(self, chunk_index: int) -> Generator:
        """Independent substream for one chunk of a larger experiment."""
        return Generator(self._bitgen().jumped(chunk_index))


def _complex_gaussian(rng: Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def sample_haar_state(n: int, rng: Generator) -> StateVec:
    """Uniform state on n qubits: normalized complex Gaussian vector."""
    z = _complex_gaussian(rng, 1 << n)
    return StateVec(n, z / np.linalg.norm(z))


def sample_ortho_seq(n: int, k: int, rng: Generator) -> OrthoSeq:
    """Uniform orthonormal k-sequence: Gaussian vectors fed through
    modified Gram-Schmidt, realizing the nested-sphere measure."""
    if not 1 <= k <= 1 << n:
        raise DomainError(f"k={k} out of range [1, {1 << n}]")
    vecs: list[np.ndarray] = []
    while len(vecs) < k:
        vecs = gram_schmidt(list(_complex_gaussian(rng, (k, 1 << n))) + vecs)[:k]
    return OrthoSeq(n, tuple(StateVec(n, v) for v in vecs[:k]))


def sample_simplex(dim: int, rng: Generator) -> np.ndarray:
    """Uniform point on the probability simplex via exponential spacings."""
    if dim < 1:
        raise DomainError(f"need dim >= 1, got {dim}")
    e = rng.standard_exponential(dim)
    return e / e.sum()


def sphere_cap_bound(eps: float, m: int) -> float:
    """Upper bound on the uniform measure of an eps-ball on the unit sphere
    of C^m: (eps sqrt(1 - eps^2/4))^(2m-1) / (sqrt(2m-1) (1 - eps^2/2))."""
    if not 0 < eps < _SQRT2:
        raise DomainError(f"need 0 < eps < sqrt(2), got {eps}")
    if m < 3:
        raise DomainError(f"bound holds for m >= 3, got {m}")
    log_rho = math.log(eps) + 0.5 * math.log1p(-eps * eps / 4)
    logv = (2 * m - 1) * log_rho - 0.5 * math.log(2 * m - 1) - math.log1p(-eps * eps / 2)
    return math.exp(logv)


def simplex_ball_bound(eps: float, dim: int) -> float:
    """Upper bound (2 eps)^(dim-1) on the uniform simplex measure of an
    L1 ball of radius eps."""
    if not 0 < eps < math.inf:
        raise DomainError(f"need finite eps > 0, got {eps}")
    if dim < 2:
        raise DomainError(f"need dim >= 2, got {dim}")
    return (2 * eps) ** (dim - 1)


def log_sphere_measure(dim: int) -> float:
    """log of the total (2 dim - 1)-surface measure 2 pi^dim / (dim-1)!."""
    if dim < 1:
        raise DomainError(f"need dim >= 1, got {dim}")
    return math.log(2) + dim * math.log(math.pi) - math.lgamma(dim)


def sphere_measure(dim: int) -> float:
    return math.exp(log_sphere_measure(dim))


def log_simplex_measure(dim: int) -> float:
    """log of the simplex surface measure sqrt(dim) / (dim-1)!."""
    if dim < 1:
        raise DomainError(f"need dim >= 1, got {dim}")
    return 0.5 * math.log(dim) - math.lgamma(dim)


def simplex_measure(dim: int) -> float:
    return math.exp(log_simplex_measure(dim))


@dataclass(frozen=True)
class BallVolumeBound:
    """Relative measure bound for a delta-ball around a k-frame of states.

    log2_product is the full product form; log2_simplified collapses every
    factor's exponent to 2**n, which per-factor needs
    2**(n+1) - 1 - 2i >= 2**n for all i < k (simplified_valid), and is
    never below the product form.
    """

    log2_product: float
    log2_simplified: float
    simplified_valid: bool

    @property
    def product(self) -> float:
        return 2.0 ** self.log2_product

    @property
    def simplified(self) -> float:
        return 2.0 ** self.log2_simplified


def ball_volume_bound(delta: float, n: int, k: int) -> BallVolumeBound:
    """Bound on the fraction of orthonormal k-sequences on n qubits lying
    within delta (per state) of a fixed sequence.

    Product form over i < k:
        (1 - delta^2/2)^(-k) * prod rho(delta)^(2^(n+1)-1-2i) / sqrt(2^(n+1)-1-2i)
    with rho(delta) = delta sqrt(1 - delta^2/4). Evaluated in the log
    domain; the factor product of (a - 2i) terms goes through lgamma.
    """
    if not 0 < delta < _SQRT2:
        raise DomainError(f"need 0 < delta < sqrt(2), got {delta}")
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not 1 <= k <= 1 << n:
        raise DomainError(f"need 1 <= k <= 2**n, got k={k}")
    a = (1 << (n + 1)) - 1
    log2_rho = math.log2(delta) + 0.5 * math.log2(1 - delta * delta / 4)
    log2_head = -k * math.log2(1 - delta * delta / 2)
    # sum of exponents: k terms a, a-2, ..., a-2(k-1)
    exp_sum = k * (a - (k - 1))
    # sum of log2(a - 2i) = k + lgamma(a/2 + 1) - lgamma(a/2 + 1 - k), base 2
    log2_fact = k + (math.lgamma(a / 2 + 1) - math.lgamma(a / 2 + 1 - k)) / math.log(2)
    log2_product = log2_head + exp_sum * log2_rho - 0.5 * log2_fact
    log2_simplified = log2_head + k * (1 << n) * log2_rho
    valid = a - 2 * (k - 1) >= 1 << n
    return BallVolumeBound(log2_product, log2_simplified, valid)


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    std_error: float
    samples: int
    bound: float

    def within_bound(self, sigmas: float = 3.0) -> bool:
        return self.estimate <= self.bound + sigmas * self.std_error


def _row_sums(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum each row of x into out. numpy's own reduction adds a row of
    fewer than 8 entries one by one from the left; column by column, in
    that order, gives the same bits at about a tenth of the cost."""
    if x.shape[1] >= 8:
        return np.add.reduce(x, axis=1, out=out)
    np.copyto(out, x[:, 0])
    for j in range(1, x.shape[1]):
        out += x[:, j]
    return out


def _chunk_rows(samples: int, dim: int, name: str) -> int:
    """Rows of one call's chunk buffers, min(CHUNK, samples), once samples
    is at least 1 and rows x dim stays within MC_BUFFER_CAP."""
    if samples < 1:
        raise DomainError(f"need samples >= 1, got {samples}")
    rows = min(CHUNK, samples)
    if rows * dim > MC_BUFFER_CAP:
        raise DomainError(
            f"{name}={dim} needs chunk buffers of {rows} x {dim} entries, "
            f"over the cap of {MC_BUFFER_CAP}"
        )
    return rows


def _mc_estimate(samples: int, stream: RngStream, bound: float, chunk_hits) -> McEstimate:
    """Hit fraction over `samples` draws and its binomial standard error.

    The draws come in chunks of at most CHUNK; chunk i calls
    chunk_hits(generator, size) with the stream's i-th jumped substream.
    """
    hits = 0
    for chunk_index, done in enumerate(range(0, samples, CHUNK)):
        hits += chunk_hits(stream.chunk_generator(chunk_index), min(CHUNK, samples - done))
    p = hits / samples
    return McEstimate(p, math.sqrt(p * (1 - p) / samples), samples, bound)


def mc_sphere_cap(
    eps: float,
    m: int,
    samples: int,
    stream: RngStream,
    center: np.ndarray | None = None,
) -> McEstimate:
    """Estimate the chance that a uniform state of C^m lands within
    Euclidean distance eps of `center` (default e_0), against the
    closed-form cap bound.

    Each chunk draws all real parts, then all imaginary parts, into the
    call's two (rows, m) buffers and tests them in place there, with two
    scratch buffers of the same shape for the squared moduli.
    """
    bound = sphere_cap_bound(eps, m)
    rows = _chunk_rows(samples, m, "m")
    if center is None:
        u = np.zeros(m, dtype=complex)
        u[0] = 1.0
    else:
        u = np.asarray(center, dtype=complex)
        if u.shape != (m,) or not abs(np.linalg.norm(u) - 1) <= 1e-9:
            raise DomainError(f"center must be a unit vector of C^{m}")
    re_buf, im_buf, sq_buf, sq2_buf = np.empty((4, rows, m))
    row_buf = np.empty(rows)

    def chunk_hits(rng: Generator, take: int) -> int:
        re, im, sq, sq2 = re_buf[:take], im_buf[:take], sq_buf[:take], sq2_buf[:take]
        r = row_buf[:take]
        rng.standard_normal(out=re)
        rng.standard_normal(out=im)
        np.multiply(re, re, out=sq)
        np.multiply(im, im, out=sq2)
        sq += sq2
        np.sqrt(_row_sums(sq, r), out=r)
        # numpy's complex-by-real division multiplies by the reciprocal
        np.divide(1.0, r, out=r)
        re *= r[:, None]
        im *= r[:, None]
        re -= u.real
        im -= u.imag
        re *= re
        im *= im
        re += im
        np.sqrt(_row_sums(re, r), out=r)
        return int(np.count_nonzero(r <= eps))

    return _mc_estimate(samples, stream, bound, chunk_hits)


def mc_simplex_ball(
    eps: float,
    dim: int,
    samples: int,
    stream: RngStream,
    center: np.ndarray | None = None,
) -> McEstimate:
    """Estimate the uniform simplex measure of the L1 ball of radius eps
    around `center` (default barycenter), against (2 eps)^(dim-1).

    Each chunk draws into the call's one (rows, dim) buffer and tests it
    in place there.
    """
    bound = simplex_ball_bound(eps, dim)
    rows = _chunk_rows(samples, dim, "dim")
    if center is None:
        v = np.full(dim, 1.0 / dim)
    else:
        v = np.asarray(center, dtype=float)
        if v.shape != (dim,) or not (v.min() >= -1e-12 and abs(v.sum() - 1) <= 1e-9):
            raise DomainError(f"center must be a probability vector of length {dim}")
    x_buf = np.empty((rows, dim))
    row_buf = np.empty(rows)

    def chunk_hits(rng: Generator, take: int) -> int:
        x, r = x_buf[:take], row_buf[:take]
        rng.standard_exponential(out=x)
        x /= _row_sums(x, r)[:, None]
        x -= v
        np.abs(x, out=x)
        return int(np.count_nonzero(_row_sums(x, r) <= eps))

    return _mc_estimate(samples, stream, bound, chunk_hits)
