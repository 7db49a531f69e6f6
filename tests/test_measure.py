import itertools
import math

import numpy as np
import pytest
import scipy.stats

from qcapprox.measure import (
    CHUNK,
    MC_BUFFER_CAP,
    McEstimate,
    RngStream,
    ball_volume_bound,
    log_simplex_measure,
    log_sphere_measure,
    mc_simplex_ball,
    mc_sphere_cap,
    sample_haar_state,
    sample_ortho_seq,
    sample_simplex,
    simplex_ball_bound,
    simplex_measure,
    sphere_cap_bound,
    sphere_measure,
)
from qcapprox.tensor import DomainError
from helpers import haar_unitary, mc_simplex_ball_reference, mc_sphere_cap_reference, traced_peak


def test_rng_stream_validation():
    with pytest.raises(DomainError):
        RngStream(-1)
    with pytest.raises(DomainError):
        RngStream(0, 1 << 64)
    RngStream((1 << 64) - 1, 0)


def test_rng_stream_reproducible():
    a = RngStream(11, 3).generator().standard_normal(8)
    b = RngStream(11, 3).generator().standard_normal(8)
    assert np.array_equal(a, b)
    c = RngStream(11, 4).generator().standard_normal(8)
    assert not np.array_equal(a, c)


def test_chunk_generators_are_order_free():
    s = RngStream(5, 0)
    second_first = s.chunk_generator(1).standard_normal(4)
    first = s.chunk_generator(0).standard_normal(4)
    second_again = s.chunk_generator(1).standard_normal(4)
    assert np.array_equal(second_first, second_again)
    assert not np.array_equal(first, second_first)


def test_haar_state_norm_and_mean():
    rng = RngStream(1).generator()
    for _ in range(50):
        s = sample_haar_state(3, rng)
        assert abs(np.linalg.norm(s.amps) - 1.0) <= 1e-12
    # E|u_0|^2 = 1/4 on two qubits; Beta(1,3) has variance 3/80
    vals = np.array(
        [abs(sample_haar_state(2, rng).amps[0]) ** 2 for _ in range(100_000)]
    )
    se = math.sqrt(3 / 80 / vals.size)
    assert abs(vals.mean() - 0.25) <= 3 * se


def test_haar_state_single_qubit_uniform_law():
    # |u_0|^2 is exactly Beta(1,1) = uniform on [0,1] for dimension 2
    rng = RngStream(2).generator()
    vals = np.array(
        [abs(sample_haar_state(1, rng).amps[0]) ** 2 for _ in range(20_000)]
    )
    p = scipy.stats.kstest(vals, "uniform").pvalue
    assert p > 0.001


def test_ortho_seq_gram_identity():
    rng = RngStream(3).generator()
    for n, k in ((1, 2), (2, 3), (3, 4), (2, 1)):
        seq = sample_ortho_seq(n, k, rng)
        m = np.column_stack([s.amps for s in seq.states])
        assert np.allclose(m.conj().T @ m, np.eye(k), atol=1e-10)


def test_ortho_seq_rotation_invariance():
    # overlap statistics with a fixed basis vector are unchanged by a fixed
    # rotation of every sample
    r = haar_unitary(4, np.random.default_rng(99))
    rng = RngStream(4).generator()
    plain = np.array(
        [
            abs(sample_ortho_seq(2, 2, rng).states[0].amps[0]) ** 2
            for _ in range(20_000)
        ]
    )
    rng2 = RngStream(5).generator()
    rotated = np.array(
        [
            abs((r @ sample_ortho_seq(2, 2, rng2).states[0].amps)[0]) ** 2
            for _ in range(20_000)
        ]
    )
    se = math.sqrt(2 * (3 / 80) / 20_000)
    assert abs(plain.mean() - rotated.mean()) <= 4 * se


def test_ortho_seq_domain():
    rng = RngStream(0).generator()
    with pytest.raises(DomainError):
        sample_ortho_seq(1, 3, rng)


def test_simplex_sampler():
    rng = RngStream(6).generator()
    for _ in range(50):
        x = sample_simplex(5, rng)
        assert abs(x.sum() - 1.0) <= 1e-12
        assert x.min() >= 0.0
    # symmetric coordinates: E = 1/N, Dirichlet variance (N-1)/(N^2 (N+1))
    vals = np.array([sample_simplex(4, rng)[0] for _ in range(50_000)])
    se = math.sqrt((3 / (16 * 5)) / vals.size)
    assert abs(vals.mean() - 0.25) <= 3 * se


def test_simplex_two_dim_uniform_marginal():
    rng = RngStream(7).generator()
    vals = np.array([sample_simplex(2, rng)[0] for _ in range(20_000)])
    assert scipy.stats.kstest(vals, "uniform").pvalue > 0.001


def test_sphere_cap_bound_frozen_values():
    v = sphere_cap_bound(0.5, 3)
    assert abs(v - 0.0135920560722) / 0.0135920560722 < 1e-6
    v2 = sphere_cap_bound(0.3, 6)
    assert abs(v2 - 4.9348766434e-07) / 4.9348766434e-07 < 1e-6


def test_sphere_cap_bound_monotone_and_small_eps():
    grid = np.linspace(0.01, 1.41, 60)
    vals = [sphere_cap_bound(float(e), 4) for e in grid]
    assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))
    assert sphere_cap_bound(1e-6, 3) < 1e-29


def test_sphere_cap_bound_domain():
    for eps in (0.0, -0.5, math.sqrt(2), 1.5):
        with pytest.raises(DomainError):
            sphere_cap_bound(eps, 3)
    with pytest.raises(DomainError):
        sphere_cap_bound(0.5, 2)


def test_simplex_ball_bound_values():
    for dim in (2, 4, 8):
        assert simplex_ball_bound(0.5, dim) == 1.0
    assert simplex_ball_bound(0.25, 4) == 0.125
    assert abs(simplex_ball_bound(0.1, 8) - 0.2**7) < 1e-18
    for eps in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            simplex_ball_bound(eps, 4)
    with pytest.raises(DomainError):
        simplex_ball_bound(0.1, 1)


def test_surface_measures():
    assert abs(sphere_measure(1) - 2 * math.pi) < 1e-12
    assert abs(sphere_measure(2) - 2 * math.pi**2) < 1e-12
    assert abs(simplex_measure(2) - math.sqrt(2)) < 1e-12
    # log forms stay finite where the direct forms overflow
    assert math.isfinite(log_sphere_measure(1 << 20))
    assert math.isfinite(log_simplex_measure(1 << 20))
    assert log_sphere_measure(1 << 20) < 0


def test_ball_volume_bound_single_state_identity():
    b = ball_volume_bound(0.5, 2, 1)
    want = sphere_cap_bound(0.5, 4)
    assert abs(b.product - want) / want < 1e-12
    assert b.simplified_valid


def test_ball_volume_bound_product_vs_simplified():
    for n, k, delta in ((2, 2, 0.5), (3, 2, 0.8), (4, 4, 0.3)):
        b = ball_volume_bound(delta, n, k)
        assert b.simplified_valid
        assert b.log2_product <= b.log2_simplified + 1e-12


def test_ball_volume_bound_validity_flag():
    assert not ball_volume_bound(0.5, 2, 3).simplified_valid
    assert ball_volume_bound(0.5, 2, 2).simplified_valid


def test_ball_volume_bound_domain():
    with pytest.raises(DomainError):
        ball_volume_bound(1.5, 2, 1)
    with pytest.raises(DomainError):
        ball_volume_bound(0.5, 2, 5)
    assert ball_volume_bound(1e-8, 2, 1).product < 1e-50


def test_mc_estimate_within_bound():
    e = McEstimate(0.4, 0.01, 1000, 0.39)
    assert e.within_bound(3.0)
    assert not e.within_bound(0.5)


def test_mc_sphere_cap_basic():
    est = mc_sphere_cap(0.5, 3, 100_000, RngStream(42, 1))
    assert est.samples == 100_000
    assert abs(est.bound - sphere_cap_bound(0.5, 3)) < 1e-15
    assert est.within_bound()
    assert 0.0 < est.estimate < est.bound


def test_mc_sphere_cap_domain_gate():
    with pytest.raises(DomainError):
        mc_sphere_cap(1.9, 3, 100, RngStream(0))
    with pytest.raises(DomainError):
        mc_sphere_cap(0.5, 3, 0, RngStream(0))
    with pytest.raises(DomainError):
        mc_sphere_cap(0.5, 3, 10, RngStream(0), center=np.ones(3, dtype=complex))
    with pytest.raises(DomainError):
        mc_sphere_cap(0.5, 3, 10, RngStream(0), center=np.array([np.nan, 0, 0]))


def test_mc_sphere_cap_bit_reproducible():
    a = mc_sphere_cap(0.8, 4, 30_000, RngStream(9, 2))
    b = mc_sphere_cap(0.8, 4, 30_000, RngStream(9, 2))
    assert a.estimate == b.estimate and a.std_error == b.std_error


def test_mc_sphere_cap_matches_chunk_oracle():
    # re-derive both estimates from the documented per-chunk substreams
    samples = CHUNK + 7
    stream = RngStream(13, 5)
    est = mc_sphere_cap(1.0, 3, samples, stream)
    hits = 0
    for i, take in enumerate((CHUNK, 7)):
        rng = stream.chunk_generator(i)
        z = rng.standard_normal((take, 3)) + 1j * rng.standard_normal((take, 3))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        u = np.zeros(3, dtype=complex)
        u[0] = 1.0
        hits += int((np.linalg.norm(z - u, axis=1) <= 1.0).sum())
    assert est.estimate == hits / samples

    est = mc_simplex_ball(0.5, 4, samples, stream)
    hits = 0
    for i, take in enumerate((CHUNK, 7)):
        e = stream.chunk_generator(i).standard_exponential((take, 4))
        x = e / e.sum(axis=1, keepdims=True)
        hits += int((np.abs(x - 0.25).sum(axis=1) <= 0.5).sum())
    assert est.estimate == hits / samples
    assert est.std_error == math.sqrt(est.estimate * (1 - est.estimate) / samples)


MC_SAMPLE_COUNTS = (CHUNK - 1, CHUNK, CHUNK + 7, 2 * CHUNK + 3)


def _mc_reference_settings():
    """(experiment, reference, eps, dim, samples, stream, center): the C06
    and C07 grids at every sample count above, then off-default centers."""
    sphere = itertools.product((3, 4, 5, 6), (0.3, 0.5, 0.8, 1.2), MC_SAMPLE_COUNTS)
    for i, (m, eps, samples) in enumerate(sphere):
        yield mc_sphere_cap, mc_sphere_cap_reference, eps, m, samples, RngStream(400, i), None
    simplex = itertools.product((2, 4, 8), (0.1, 0.25, 0.4), MC_SAMPLE_COUNTS)
    for i, (dim, eps, samples) in enumerate(simplex):
        yield mc_simplex_ball, mc_simplex_ball_reference, eps, dim, samples, RngStream(401, i), None
    rng = np.random.default_rng(402)
    for i, samples in enumerate(MC_SAMPLE_COUNTS):
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        u /= np.linalg.norm(u)
        yield mc_sphere_cap, mc_sphere_cap_reference, 0.8, 4, samples, RngStream(403, i), u
        v = sample_simplex(4, RngStream(404, i).generator())
        yield mc_simplex_ball, mc_simplex_ball_reference, 0.25, 4, samples, RngStream(405, i), v


def test_mc_estimates_match_per_chunk_reference():
    # The buffered, in-place hit tests must count the same hits as fresh
    # per-chunk arrays. The sphere distances are summed in real arithmetic,
    # which differs by an ulp or two from numpy's complex modulus (a fused
    # multiply-add) in about one row in eight.
    settings = list(_mc_reference_settings())
    assert len(settings) >= 100
    for fn, reference, eps, dim, samples, stream, center in settings:
        got = fn(eps, dim, samples, stream, center=center)
        want = reference(eps, dim, samples, stream, center=center)
        assert got.estimate == want.estimate, (fn.__name__, eps, dim, samples, stream)
        assert got.std_error == want.std_error, (fn.__name__, eps, dim, samples, stream)


def test_mc_peak_memory_is_draws_plus_two_scratch_chunks():
    # One (CHUNK, 3) float64 array is 1.5 MiB. The sphere draws two of them
    # (real and imaginary parts), the simplex one. The slack covers the
    # row sums and the hit mask (9 bytes a row), the generators and numpy's
    # own ufunc buffers.
    chunk_bytes = CHUNK * 3 * 8
    slack = CHUNK * 9 + (256 << 10)
    for fn, eps, draws in ((mc_sphere_cap, 0.5, 2), (mc_simplex_ball, 0.25, 1)):
        fn(eps, 3, 10, RngStream(1))
        _, peak = traced_peak(lambda: fn(eps, 3, 3 * CHUNK, RngStream(1)))
        assert peak <= (draws + 2) * chunk_bytes + slack, (fn.__name__, peak)


def test_mc_dimension_cap_refused_before_allocation():
    # Each call is refused before its center or any chunk buffer exists.
    # The first two would need 8 GB or more per buffer; the last two are
    # one column over the cap.
    for fn, eps, dim, samples in (
        (mc_sphere_cap, 0.5, 100_000_000, 10),
        (mc_simplex_ball, 0.25, 1_000_000_000, 100_000),
        (mc_sphere_cap, 0.5, MC_BUFFER_CAP // CHUNK + 1, CHUNK),
        (mc_simplex_ball, 0.25, MC_BUFFER_CAP // CHUNK + 1, 3 * CHUNK),
    ):
        with pytest.raises(DomainError, match="over the cap"):
            fn(eps, dim, samples, RngStream(0))
    # a chunk buffer of exactly MC_BUFFER_CAP entries is accepted
    dim = MC_BUFFER_CAP // CHUNK
    assert mc_simplex_ball(0.25, dim, CHUNK, RngStream(0)).samples == CHUNK


def test_mc_sphere_cap_paired_monotonicity():
    stream = RngStream(21, 0)
    low = mc_sphere_cap(0.5, 3, 50_000, stream)
    high = mc_sphere_cap(1.0, 3, 50_000, stream)
    assert low.estimate <= high.estimate


def test_mc_sphere_cap_random_center():
    rng = np.random.default_rng(31)
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    c /= np.linalg.norm(c)
    est = mc_sphere_cap(0.5, 4, 50_000, RngStream(3, 3), center=c)
    assert est.within_bound()


def test_mc_simplex_ball_basic():
    est = mc_simplex_ball(0.25, 4, 100_000, RngStream(17, 0))
    assert est.bound == 0.125
    assert est.within_bound()
    assert est.estimate > 0.0


def test_mc_simplex_ball_extremes():
    assert mc_simplex_ball(2.0, 4, 1000, RngStream(0)).estimate == 1.0
    assert mc_simplex_ball(1e-12, 4, 1000, RngStream(0)).estimate == 0.0


def test_mc_simplex_ball_center_validation():
    with pytest.raises(DomainError):
        mc_simplex_ball(0.25, 4, 10, RngStream(0), center=np.array([0.5, 0.5, 0.5, -0.5]))
    with pytest.raises(DomainError):
        mc_simplex_ball(0.25, 4, 10, RngStream(0), center=np.array([np.nan, 0.5, 0.25, 0.25]))


def test_mc_simplex_ball_random_interior_center():
    c = sample_simplex(4, RngStream(77).generator())
    est = mc_simplex_ball(0.25, 4, 50_000, RngStream(78), center=c)
    assert est.within_bound()


def test_mc_simplex_ball_reproducible():
    a = mc_simplex_ball(0.4, 8, 30_000, RngStream(1, 1))
    b = mc_simplex_ball(0.4, 8, 30_000, RngStream(1, 1))
    assert a.estimate == b.estimate
