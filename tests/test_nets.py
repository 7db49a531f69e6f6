import numpy as np
import pytest

from qcapprox.metrics import two_norm
from qcapprox.nets import (
    NetSpec,
    circuit_structure_count,
    decode_index,
    encode_matrix,
    iter_net_indices,
    nearest_net_index,
    net_cardinality,
    net_point,
    paper_entry_count,
)
from qcapprox.tensor import DomainError
from helpers import haar_unitary


def test_spec_validation():
    with pytest.raises(DomainError):
        NetSpec(0, 1.0)
    with pytest.raises(DomainError):
        NetSpec(1, 0.0)
    with pytest.raises(DomainError):
        NetSpec(1, 2.0)
    with pytest.raises(DomainError):
        NetSpec(1, 1.0, rho=-0.1)
    for rho in (np.nan, np.inf):
        with pytest.raises(DomainError):
            NetSpec(1, 1.0, rho=rho)


def test_default_rho_and_axis_points():
    spec = NetSpec(1, 1.0)
    assert spec.rho == 0.25
    assert spec.axis_points == 6
    assert NetSpec(1, 0.5).axis_points == 12
    assert spec.num_axes == 8


def test_coarse_grid_cardinality():
    # a rho large enough for two points per axis gives 2^8 grid matrices
    spec = NetSpec(1, 1.9, rho=0.75)
    assert spec.axis_points == 2
    exact, _ = net_cardinality(spec)
    assert exact == 256


def test_cardinality_frozen_values():
    exact, bound = net_cardinality(NetSpec(1, 1.0))
    assert exact == 6**8 == 1679616
    assert bound == 65536
    _, bound2 = net_cardinality(NetSpec(2, 0.5))
    assert bound2 == 4**256
    assert bound2.bit_length() == 513
    assert paper_entry_count(NetSpec(1, 1.0)) == 8**4 == 4096


def test_cardinality_direction_or_counterexample():
    # the spacing rule here can out-count the closed-form bound; where it
    # does, record the pair and check the per-entry count the bound was
    # actually derived from still sits below it
    for g, delta in ((1, 0.5), (1, 1.0), (2, 0.5), (2, 1.0)):
        spec = NetSpec(g, delta)
        exact, bound = net_cardinality(spec)
        if exact > bound:
            print(f"counterexample: g={g} delta={delta} exact={exact} > bound={bound}")
            assert paper_entry_count(spec) <= bound
        else:
            assert exact <= bound
        assert paper_entry_count(spec) <= bound


def test_cardinality_refuses_beyond_digit_cap():
    # decided from logarithms: g = 5 would otherwise take a 2^20-fold power
    for spec in (NetSpec(3, 0.1), NetSpec(5, 0.1), NetSpec(3, 1.99, rho=1e-40)):
        with pytest.raises(DomainError):
            net_cardinality(spec)
    # indexing needs only the exact grid count, which stays in range here
    spec = NetSpec(3, 0.1)
    last = spec.axis_points ** spec.num_axes - 1
    assert encode_matrix(spec, decode_index(spec, last)) == last


def test_axis_grid_covers_unit_square():
    spec = NetSpec(1, 1.0)
    rng = np.random.default_rng(0)
    from qcapprox.nets import _axis_values

    values = _axis_values(spec)
    for _ in range(500):
        x = rng.uniform(-1, 1)
        assert np.abs(values - x).min() <= spec.rho / np.sqrt(2) + 1e-12


def test_encode_decode_round_trip():
    rng = np.random.default_rng(1)
    spec = NetSpec(1, 1.0)
    exact, _ = net_cardinality(spec)
    for _ in range(100):
        idx = int(rng.integers(0, exact))
        a = decode_index(spec, idx)
        assert encode_matrix(spec, a) == idx
    # big-integer index space
    spec2 = NetSpec(2, 0.5)
    exact2, _ = net_cardinality(spec2)
    import random

    pyrng = random.Random(7)
    for _ in range(25):
        idx = pyrng.randrange(exact2)
        assert encode_matrix(spec2, decode_index(spec2, idx)) == idx


def test_decode_index_range_check():
    spec = NetSpec(1, 1.9, rho=0.75)
    with pytest.raises(DomainError):
        decode_index(spec, 256)
    with pytest.raises(DomainError):
        decode_index(spec, -1)


def test_grid_unitary_is_fixed_point():
    # entries of this unitary sit exactly on the two-point axis grid
    spec = NetSpec(1, 1.9, rho=0.75)
    m = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
    idx = encode_matrix(spec, m)
    assert nearest_net_index(spec, m) == idx
    assert np.allclose(net_point(spec, idx), m, atol=1e-12)


def test_nearest_index_identity_within_delta():
    spec = NetSpec(1, 1.0)
    idx = nearest_net_index(spec, np.eye(2, dtype=complex))
    assert two_norm(np.eye(2) - net_point(spec, idx)) <= 1.0 + 1e-9


def test_nearest_index_rejects_far_entries():
    spec = NetSpec(1, 1.0)
    with pytest.raises(DomainError):
        nearest_net_index(spec, np.array([[2.0, 0], [0, 1.0]], dtype=complex))


def test_grid_index_rejects_non_finite():
    spec = NetSpec(1, 1.0)
    for bad in (np.nan, np.inf):
        a = np.full((2, 2), 1 / 6 + 1j / 6)
        a[1, 0] = bad
        with pytest.raises(DomainError):
            encode_matrix(spec, a)
        with pytest.raises(DomainError):
            nearest_net_index(spec, a)


def test_covering_radius_haar():
    rng = np.random.default_rng(2)
    for delta in (0.5, 1.0):
        spec = NetSpec(1, delta)
        worst = 0.0
        for _ in range(1000):
            u = haar_unitary(2, rng)
            p = net_point(spec, nearest_net_index(spec, u))
            worst = max(worst, two_norm(u - p))
        assert worst <= delta + 1e-9


def test_net_point_deterministic():
    spec = NetSpec(1, 1.0)
    a = net_point(spec, 123456)
    b = net_point(spec, 123456)
    assert np.array_equal(a, b)


def test_net_point_singular_grid_matrix():
    spec = NetSpec(1, 1.0)
    v = 1.0 / 6.0
    singular = np.full((2, 2), v + 1j * v)
    idx = encode_matrix(spec, singular)
    with pytest.raises(DomainError):
        net_point(spec, idx)


def test_iteration_cap():
    spec = NetSpec(1, 1.9, rho=0.75)
    indices = list(iter_net_indices(spec))
    assert indices == list(range(256))
    with pytest.raises(DomainError):
        next(iter_net_indices(NetSpec(2, 0.5)))


def test_circuit_structure_count():
    assert circuit_structure_count(4, 2, 0) == 1
    assert circuit_structure_count(4, 2, 3) == 216
    assert circuit_structure_count(3, 2, 1) == 3
    with pytest.raises(DomainError):
        circuit_structure_count(1, 2, 1)
