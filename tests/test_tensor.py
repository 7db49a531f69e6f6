import math
from contextlib import contextmanager

import numpy as np
import pytest

from qcapprox import (
    Circuit,
    ControlledGate,
    Distribution,
    DomainError,
    LocalGate,
    PhaseOnZero,
    StateVec,
    apply_circuit,
    basis_columns,
    circuit_dagger,
    circuit_to_matrix,
    default_gate_cost,
    embed_gate,
    measure_prefix,
)
from qcapprox import tensor
from qcapprox.tensor import SIM_QUBIT_CAP, _scratch_amps, gate_qubits
from helpers import (
    embed_oracle,
    gate_oracle,
    haar_unitary,
    kernel_gate,
    kernel_run,
    random_circuit,
    random_state,
    traced_peak,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)

# A scratch of this many amplitudes cuts blocks of 2**8 and 2**12
# amplitudes (B = 1 and 16 columns at n=8) into many chunks, small enough
# for the dense oracle.
SMALL_SCRATCH = 64


@contextmanager
def small_scratch(monkeypatch):
    """Inside the `with` block, every _run_gates call sizes its scratch at
    SMALL_SCRATCH amplitudes."""
    with monkeypatch.context() as mp:
        mp.setattr(tensor, "_scratch_amps", lambda amps: SMALL_SCRATCH)
        yield


def test_state_validation():
    with pytest.raises(DomainError):
        StateVec(2, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DomainError):
        StateVec(1, np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        StateVec(1, np.array([np.nan, 1.0]))
    s = StateVec.zero(3)
    assert s.amps[0] == 1.0 and abs(s.amps[1:]).max() == 0.0


def test_basis_states_capped_before_allocating():
    for n in (0, SIM_QUBIT_CAP + 1):
        with pytest.raises(DomainError):
            StateVec.zero(n)
        with pytest.raises(DomainError):
            StateVec.basis(n, 0)


def test_state_amps_frozen():
    s = StateVec.zero(2)
    with pytest.raises(ValueError):
        s.amps[0] = 0.5


# (controls, target, matrix) inputs the pair constructor refuses.
PAIR_REFUSED = [
    (((0, 1),), 1, np.array([[0, np.nan], [1, 0]], dtype=complex)),
    (((0, 2),), 1, X),  # bad polarity
    (((0, 1.9),), 1, X),  # a float polarity, not truncated to 1
    (((0, 1.0),), 1, X),
    (((1, 0),), 1, X),  # control hits target
    (((1.7, 1),), 0, X),  # a float control, not truncated to qubit 1
    (((1, 1),), 0.2, X),  # a float target
    (((0, 1),), 1, np.eye(4)),  # not 2x2
    (((0, 1),), 1, np.eye(2)[0]),
]


def test_gate_validation():
    with pytest.raises(DomainError):
        LocalGate((0, 0), haar_unitary(4, np.random.default_rng(0)))
    with pytest.raises(DomainError):
        LocalGate((0,), np.array([[1, 1], [0, 1]], dtype=complex))  # not unitary
    with pytest.raises(DomainError):
        LocalGate((0,), np.array([[np.nan, 0], [0, 1]], dtype=complex))
    for positions in ((0.9,), (0, 1.0), (), (-1,)):  # floats are not truncated
        with pytest.raises(DomainError):
            LocalGate(positions, np.eye(1 << len(positions)))
    with pytest.raises(DomainError):
        LocalGate((0,), np.eye(4))  # the matrix does not match the positions
    # the 1e-9 tolerance: (1 + t) I has Frobenius defect sqrt(2) ((1 + t)^2 - 1)
    LocalGate((0,), np.eye(2) * (1 + 3e-10))
    with pytest.raises(DomainError, match=r"Frobenius defect 2\.828e-09 > 1e-09"):
        LocalGate((0,), np.eye(2) * (1 + 1e-9))
    assert LocalGate((np.int64(1), np.int32(0)), np.eye(4)).positions == (1, 0)
    for controls, target, matrix in PAIR_REFUSED:
        with pytest.raises(DomainError):
            ControlledGate(controls, target, matrix)
    gate = ControlledGate(((np.int64(0), np.int64(0)),), np.int64(1), X)
    assert gate.wires == (0,) and gate.target == 1 and type(gate.target) is int
    with pytest.raises(DomainError):
        Circuit(2, (LocalGate((5,), X),))  # out of range
    # inputs of the wrong form: DomainError, not TypeError or ValueError
    with pytest.raises(DomainError, match="gate qubits 5 must be"):
        LocalGate(5, X)
    with pytest.raises(DomainError, match="gate qubits 3 must be"):
        ControlledGate.multiplexor(3, 0, [0], X[None])
    for controls in ([(1,)], [(1, 0, 1)], 5):
        with pytest.raises(DomainError, match="control polarities must be 0 or 1"):
            ControlledGate(controls, 0, X)
    stack = np.array([X, X, X])
    ControlledGate.multiplexor((0, 2), 1, [3, 0, 1], stack)
    # each branch's defect is 6e-10, under the tolerance, though their sum is not
    near = np.repeat(np.eye(2)[None], 1024, axis=0) * (1 + 3e-10 / np.sqrt(2))
    ControlledGate.multiplexor(tuple(range(1, 11)), 0, np.arange(1024), near)
    for wires, target, pattern, matrices in (
        ((0, 2), 1, [3, 0, 3], stack),  # a repeated pattern
        ((0, 2), 1, [3, 0, 4], stack),  # a pattern >= 2**c
        ((0, 2), 1, [3, 0, -1], stack),
        ((0, 2), 1, [3.0, 0.0, 1.0], stack),
        ((0, 2), 1, [], stack[:0]),
        ((0, 2), 1, [3, 0, 1], np.array([X, [[1, 1], [0, 1]], X])),  # a non-unitary entry
        ((0, 2), 1, [3, 0, 1], np.array([X, X, [[np.nan, 0], [0, 1]]])),
        ((0, 2), 1, [3, 0, 1], stack[:2]),  # fewer matrices than patterns
        ((0, 2), 1, [3, 0], stack),  # more
        ((0, 2), 1, [3], X),
        ((0, 1), 1, [3, 0, 1], stack),  # control hits target
        ((0, -2), 1, [3, 0, 1], stack),
        ((0, 2.0), 1, [3, 0, 1], stack),  # a float wire
        ((0, 2), 1.0, [3, 0, 1], stack),
        (tuple(range(2, 65)), 0, [0, 1, 2], stack),  # too many controls
    ):
        with pytest.raises(DomainError):
            ControlledGate.multiplexor(wires, target, pattern, matrices)


def test_pair_constructor_agrees_with_one_branch_multiplexor():
    # Past its polarity check, ControlledGate(controls, target, m) is
    # ControlledGate.multiplexor(wires, target, [pattern], m[None]): the same
    # fields, or the same error.
    def outcome(build):
        try:
            gate = build()
        except DomainError as exc:
            return "refused", str(exc)
        assert gate.pattern.dtype == np.int64 and all(type(q) is int for q in gate.wires)
        return gate.wires, gate.target, gate.pattern.tobytes(), gate.stack.tobytes()

    rng = np.random.default_rng(19)
    accepted = [(((0, 0), (2, 1)), 1, X), ((), 0, haar_unitary(2, rng)),
                (((np.int64(3), np.int64(1)), (0, 0)), np.int32(2), haar_unitary(2, rng).tolist())]
    compared = 0
    for controls, target, matrix in PAIR_REFUSED + accepted:
        pair = outcome(lambda: ControlledGate(controls, target, matrix))
        polarities = [p for _, p in controls]
        if not all(type(p) in (int, np.int64) and p in (0, 1) for p in polarities):
            assert pair == ("refused", f"control polarities must be 0 or 1: {controls}")
            continue
        pattern = sum(p << j for j, p in enumerate(polarities))
        mux = outcome(lambda: ControlledGate.multiplexor([q for q, _ in controls], target,
                                                         [pattern], np.asarray(matrix)[None]))
        assert pair == mux, (controls, target)
        compared += 1
    assert compared == len(PAIR_REFUSED) + len(accepted) - 3  # polarities 2, 1.9 and 1.0


def test_gates_compare_and_hash_by_identity():
    # Gates hold arrays, so == and hash go by identity; a phase-on-zero
    # holds one float and keeps value equality.
    gates = [LocalGate((0,), np.eye(2)), ControlledGate(((0, 1),), 1, X),
             ControlledGate.multiplexor((0,), 1, [0, 1], np.array([X, X]))]
    twins = [LocalGate((0,), np.eye(2)), ControlledGate(((0, 1),), 1, X),
             ControlledGate.multiplexor((0,), 1, [0, 1], np.array([X, X]))]
    for gate, twin in zip(gates, twins):
        assert gate == gate and gate != twin
        assert len({gate, twin, gate}) == 2
    assert PhaseOnZero(0.5) == PhaseOnZero(0.5) and hash(PhaseOnZero(0.5)) == hash(PhaseOnZero(0.5))
    circuit = Circuit(2, tuple(gates))
    assert circuit == Circuit(2, tuple(gates)) and circuit != Circuit(2, tuple(twins))
    assert hash(circuit) == hash(Circuit(2, tuple(gates)))


def test_embed_x_on_qubit_one():
    # X on qubit 1 flips bit 1: |00> (index 0) goes to index 2
    u = embed_gate(LocalGate((1,), X), 2)
    out = u @ StateVec.zero(2).amps
    assert np.allclose(out, np.eye(4)[:, 2])


def test_embed_matches_bit_reindex_oracle():
    rng = np.random.default_rng(42)
    m = haar_unitary(4, rng)
    got = embed_gate(LocalGate((0, 2), m), 3)
    want = embed_oracle((0, 2), m, 3)
    assert np.allclose(got, want, atol=1e-12)
    # a few more random position sets
    for _ in range(20):
        n = int(rng.integers(2, 5))
        g = int(rng.integers(1, min(n, 3) + 1))
        positions = tuple(int(q) for q in rng.choice(n, size=g, replace=False))
        m = haar_unitary(1 << g, rng)
        assert np.allclose(
            embed_gate(LocalGate(positions, m), n),
            embed_oracle(positions, m, n),
            atol=1e-12,
        )


def test_embed_unitary_for_all_variants():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        c = random_circuit(n, 1, rng)
        u = embed_gate(c.gates[0], n)
        assert np.allclose(u.conj().T @ u, np.eye(1 << n), atol=1e-10)


def test_phase_on_zero():
    c = Circuit(1, (PhaseOnZero(np.pi),))
    out = apply_circuit(c, StateVec.zero(1))
    assert np.allclose(out.amps, [-1.0, 0.0])
    for w in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            PhaseOnZero(w)


def test_controlled_gate_polarity():
    # fire X on qubit 1 only when qubit 0 is 0
    g = ControlledGate(((0, 0),), 1, X)
    out = apply_circuit(Circuit(2, (g,)), StateVec.zero(2))
    assert np.allclose(out.amps, np.eye(4)[:, 2])
    out2 = apply_circuit(Circuit(2, (g,)), StateVec.basis(2, 1))
    assert np.allclose(out2.amps, np.eye(4)[:, 1])  # control bit is 1, no fire


def test_runs_cut_at_each_repeated_pattern():
    # gates on one target and control sequence commute only while their
    # polarity patterns are distinct; each one-branch gate is its own step
    rng = np.random.default_rng(31)
    n, qubits = 4, (3, 0, 2)
    for patterns in ([5, 5, 5], [1, 6, 1, 6], [0, 2, 7, 2, 0], [3, 4, 3, 3, 4, 1, 4]):
        gates = [ControlledGate(tuple((q, (b >> j) & 1) for j, q in enumerate(qubits)), 1,
                                haar_unitary(2, rng)) for b in patterns]
        want = np.eye(1 << n, dtype=complex)
        for gate in gates:
            want = gate_oracle(gate, n) @ want
        assert np.abs(circuit_to_matrix(Circuit(n, tuple(gates))) - want).max() <= 1e-12


def _chunked_gates(n, rng):
    """Gates at n=8 that a SMALL_SCRATCH scratch cuts in every direction,
    each more than once at B = 1 and at B = 16 columns:
    - rows of X through the widened kron gemm: qubit 0 (4 / 64 chunks at
      B = 1 / 16), qubits 1-2 and qubit 1 (4 chunks each at B = 1);
    - rows of X, one gemm per (d, Y) slice: qubit 5 and qubits 4-5 (4 each
      at B = 1), qubit 1 (64 at B = 16);
    - column ranges of Y: qubit 7 and qubits 7-5 in descending order (4 /
      64 each), and at B = 16 every other adjacent gate;
    - slabs gathered into the scratch, on qubits 0 and 7 and on 2, 7 and
      4 (8 / 128 each; at B = 16 every slab is also cut in column ranges);
    - lone controlled gates, one-gate steps on the view their controls
      select: under a control on qubit 7 (4 / 64 slabs), under controls 0
      and 5 (2 / 32 slabs);
    - multi-branch gates: 4 branches under controls 2 and 4, one branch
      per piece, and 16 under controls 0-3, two branches per piece at
      B = 1 (8 / 128 pieces each);
    - a controlled gate without controls and phase-on-zero."""
    u = lambda g: haar_unitary(1 << g, rng)  # noqa: E731
    gates = [LocalGate(pos, u(len(pos))) for pos in
             ((0,), (1, 2), (5,), (4, 5), (1,), (7,), (7, 6, 5), (0, 7), (2, 7, 4))]
    gates.append(ControlledGate(((7, 1),), 3, u(1)))
    gates.append(ControlledGate(((0, 0), (5, 1)), 6, u(1)))
    gates.append(ControlledGate.multiplexor((2, 4), 6, range(4), np.array([u(1) for _ in range(4)])))
    gates.append(ControlledGate.multiplexor(range(4), 5, range(16), np.array([u(1) for _ in range(16)])))
    gates += [ControlledGate((), 4, u(1)), PhaseOnZero(0.7)]
    return gates


def test_apply_matches_dense_oracle(monkeypatch):
    rng = np.random.default_rng(11)
    c = random_circuit(3, 3, rng)
    s = random_state(3, rng)
    dense = np.eye(8, dtype=complex)
    for gate in c.gates:
        dense = embed_gate(gate, 3) @ dense
    assert np.allclose(apply_circuit(c, s).amps, dense @ s.amps, atol=1e-12)
    # Blocks of 2**8 and 2**12 amplitudes through a scratch of 64.
    n = 8
    c = Circuit(n, tuple(_chunked_gates(n, rng)))
    want = np.eye(1 << n, dtype=complex)
    for gate in c.gates:
        want = gate_oracle(gate, n) @ want
    s = random_state(n, rng)
    inputs = rng.choice(1 << n, size=16, replace=False)
    with small_scratch(monkeypatch):
        assert np.abs(apply_circuit(c, s).amps - want @ s.amps).max() <= 1e-12
        assert np.abs(basis_columns(c, inputs) - want[:, inputs]).max() <= 1e-12


def test_apply_vs_matrix_random_pairs():
    rng = np.random.default_rng(100)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        c = random_circuit(n, int(rng.integers(0, 6)), rng)
        s = random_state(n, rng)
        direct = apply_circuit(c, s).amps
        via_matrix = circuit_to_matrix(c) @ s.amps
        assert np.linalg.norm(direct - via_matrix) <= 1e-9


def test_circuit_to_matrix_matches_oracle_product():
    # Four circuits of single random gates, then four of controlled-gate runs
    # broken by single gates, each against the brute-force product and
    # against the gates applied one circuit at a time.
    rng = np.random.default_rng(31)
    for n in range(1, 7):
        for trial in range(8):
            if trial < 4:
                gates = tuple(kernel_gate(n, rng) for _ in range(6))
            else:
                gates = tuple(
                    g for i in range(5)
                    for g in (kernel_run(n, rng) if i % 2 == 0 else [kernel_gate(n, rng)])
                )
            want = np.eye(1 << n, dtype=complex)
            one_by_one = np.eye(1 << n, dtype=complex)
            for gate in gates:
                want = gate_oracle(gate, n) @ want
                one_by_one = circuit_to_matrix(Circuit(n, (gate,))) @ one_by_one
            got = circuit_to_matrix(Circuit(n, gates))
            assert np.allclose(got, want, atol=1e-12)
            assert np.allclose(got, one_by_one, atol=1e-12)


def test_apply_leaves_input_state_unchanged():
    rng = np.random.default_rng(13)
    for n in (1, 3):
        s = random_state(n, rng)
        before = s.amps.copy()
        gates = (ControlledGate((), 0, X), PhaseOnZero(0.3)) + random_circuit(n, 6, rng).gates
        out = apply_circuit(Circuit(n, gates), s)
        assert np.array_equal(s.amps, before)
        assert not np.shares_memory(out.amps, s.amps)


def test_apply_peak_memory_and_result_layout():
    # Every gate updates the input copy in place through one scratch, a
    # quarter of a state at n=16; the gates' matrices and the widened
    # kron matrix stay within the slack.
    rng = np.random.default_rng(14)
    n = 16
    s = random_state(n, rng)
    before = s.amps.copy()
    bound = s.amps.nbytes + 16 * _scratch_amps(1 << n) + (64 << 10)
    for gates in (
        (LocalGate((3, 4), haar_unitary(4, rng)), LocalGate((15, 14, 13), haar_unitary(8, rng))),
        (LocalGate((15, 0), haar_unitary(4, rng)), LocalGate((0, 8, 15), haar_unitary(8, rng))),
        (ControlledGate((), 5, X), ControlledGate((), 0, haar_unitary(2, rng))),
    ):
        out, peak = traced_peak(lambda: apply_circuit(Circuit(n, gates), s))
        assert peak <= bound
        assert out.amps.flags.c_contiguous and not out.amps.flags.writeable
        assert np.array_equal(s.amps, before)


def test_kernel_peak_memory_is_block_plus_scratch():
    # A dense matrix at n=8 holds the matrix and one scratch, a quarter of
    # a matrix; a mixed circuit at n=20 holds the input copy, one scratch
    # of a 32nd of a state, and for its multi-branch step half a scratch of
    # gathered pairs.
    rng = np.random.default_rng(16)
    n = 8
    c = random_circuit(n, 30, rng)
    _, peak = traced_peak(lambda: circuit_to_matrix(c))
    assert peak <= (16 << 2 * n) + 16 * _scratch_amps(1 << 2 * n) + (64 << 10)
    n = 20
    u = lambda g: haar_unitary(1 << g, rng)  # noqa: E731
    c = Circuit(n, (
        LocalGate((0, 1), u(2)), LocalGate((9,), u(1)), LocalGate((19, 18, 17), u(3)),
        LocalGate((3, 12, 19), u(3)), ControlledGate(((19, 1),), 4, u(1)),
        ControlledGate(((2, 0), (11, 1)), 7, u(1)),
        ControlledGate.multiplexor((5, 6), 15, range(4), np.array([u(1) for _ in range(4)])),
        ControlledGate((), 10, u(1)), PhaseOnZero(0.4),
    ))
    s = random_state(n, rng)
    out, peak = traced_peak(lambda: apply_circuit(c, s))
    assert peak <= s.amps.nbytes + 24 * _scratch_amps(1 << n) + (64 << 10)
    assert np.linalg.norm(apply_circuit(circuit_dagger(c), out).amps - s.amps) <= 1e-12
    # A full cascade level, 2**19 branches on wires 0..18, takes no more
    # than the scratch; its dagger adds the reversed stack it builds.
    z = rng.standard_normal((1 << n - 1, 2)) + 1j * rng.standard_normal((1 << n - 1, 2))
    a0, a1 = (z / np.linalg.norm(z, axis=1, keepdims=True)).T
    stack = np.stack([a0, -a1.conj(), a1, a0.conj()], axis=-1).reshape(-1, 2, 2)
    level = Circuit(n, (ControlledGate.multiplexor(range(n - 1), n - 1, range(1 << n - 1), stack),))
    out, peak = traced_peak(lambda: apply_circuit(level, s))
    assert peak <= s.amps.nbytes + 16 * _scratch_amps(1 << n) + (64 << 10)
    back, peak = traced_peak(lambda: apply_circuit(circuit_dagger(level), out))
    assert peak <= s.amps.nbytes + 16 * _scratch_amps(1 << n) + stack.nbytes + (64 << 10)
    assert np.linalg.norm(back.amps - s.amps) <= 1e-12


def _controlled_wires(n, c, placement, rng):
    """Target and c control qubits: all controls above the target, all
    below it, on both sides of it (alternating, one side only for c=1), or
    wrapping from target n-1 to controls 0..c-1."""
    if placement == "wrap":
        return n - 1, list(range(c))
    if placement == "above":
        target = int(rng.integers(0, n - c))
        return target, [int(q) for q in rng.choice(np.arange(target + 1, n), size=c, replace=False)]
    if placement == "below":
        target = int(rng.integers(c, n))
        return target, [int(q) for q in rng.choice(target, size=c, replace=False)]
    target = n // 2
    above = rng.choice(np.arange(target + 1, n), size=(c + 1) // 2, replace=False)
    below = rng.choice(target, size=c // 2, replace=False)
    return target, [int(q) for pair in zip(above, below) for q in pair] + [int(q) for q in above[len(below):]]


def test_lone_controlled_gates_in_place_match_oracle(monkeypatch):
    # A controlled gate that runs alone is a one-gate step on the view its
    # controls select, updated in place slab by slab, wherever the controls
    # sit. Blocks of 0 to 256 columns cut the view in up to eight slabs;
    # with a SMALL_SCRATCH scratch, 1 and 16 columns cut it in up to 256
    # slabs. (The dense oracle of 5 or 6 controls at n=10 would take
    # seconds.)
    rng = np.random.default_rng(41)
    for n, most in ((8, 6), (10, 4)):
        for c in range(1, most + 1):
            for placement in ("above", "below", "interleaved", "wrap"):
                target, qubits = _controlled_wires(n, c, placement, rng)
                controls = tuple((q, int(rng.integers(0, 2))) for q in qubits)
                gate = ControlledGate(controls, target, haar_unitary(2, rng))
                want = gate_oracle(gate, n)
                for cols in (0, 1, 3, 16, 256):
                    inputs = rng.choice(1 << n, size=cols, replace=False)
                    got = basis_columns(Circuit(n, (gate,)), inputs)
                    assert np.abs(got - want[:, inputs]).max(initial=0.0) <= 1e-12
                with small_scratch(monkeypatch):
                    for cols in (1, 16):
                        inputs = rng.choice(1 << n, size=cols, replace=False)
                        got = basis_columns(Circuit(n, (gate,)), inputs)
                        assert np.abs(got - want[:, inputs]).max() <= 1e-12


def test_non_adjacent_gates_in_slabs_match_oracle(monkeypatch):
    # Blocks of 2**14 and 2**16 amplitudes, contracted in two and in eight
    # slabs, with gate qubits among the leading axes the slabs are cut from.
    # With a SMALL_SCRATCH scratch, 1 column is cut in 32 slabs, and 16
    # columns in 512, each a range of two to four columns.
    rng = np.random.default_rng(15)
    n = 10
    c = Circuit(n, tuple(
        LocalGate(pos, haar_unitary(1 << len(pos), rng)) for pos in ((9, 0), (0, 5, 9), (8, 1, 9), (3, 7))
    ))
    want = np.eye(1 << n, dtype=complex)
    for gate in c.gates:
        want = gate_oracle(gate, n) @ want
    for cols in (16, 64):
        inputs = rng.choice(1 << n, size=cols, replace=False)
        assert np.allclose(basis_columns(c, inputs), want[:, inputs], atol=1e-12)
    with small_scratch(monkeypatch):
        for cols in (1, 16):
            inputs = rng.choice(1 << n, size=cols, replace=False)
            assert np.abs(basis_columns(c, inputs) - want[:, inputs]).max() <= 1e-12
    # Wide gates on a block of 2**16 amplitudes that leave two untouched
    # qubits, or one, to cut slabs from; their slabs are cut in two and in
    # four column ranges as well. A SMALL_SCRATCH scratch is less than
    # twice their dimension, so they bring a scratch of their own.
    n = 8
    for pos in ((0, 1, 2, 3, 4, 6), (7, 0, 1, 2, 3, 4, 5)):
        gate = LocalGate(pos, haar_unitary(1 << len(pos), rng))
        want = gate_oracle(gate, n)
        assert np.allclose(circuit_to_matrix(Circuit(n, (gate,))), want, atol=1e-12)
        with small_scratch(monkeypatch):
            assert np.abs(basis_columns(Circuit(n, (gate,)), [0, 77, 255]) - want[:, [0, 77, 255]]).max() <= 1e-12


def test_basis_columns_match_matrix_columns():
    rng = np.random.default_rng(9)
    c = random_circuit(4, 8, rng)
    inputs = [5, 0, 5, 15]
    assert np.allclose(basis_columns(c, inputs), circuit_to_matrix(c)[:, inputs], atol=1e-12)
    assert basis_columns(c, []).shape == (16, 0)
    with pytest.raises(DomainError):
        basis_columns(c, [16])


def test_apply_preserves_norm():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        out = apply_circuit(random_circuit(n, 4, rng), random_state(n, rng))
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12


def test_circuit_to_matrix_trivials():
    assert np.allclose(circuit_to_matrix(Circuit(1, ())), np.eye(2))
    assert np.allclose(circuit_to_matrix(Circuit(1, (LocalGate((0,), X),))), X)


def test_circuit_to_matrix_columns_match_apply():
    rng = np.random.default_rng(8)
    c = random_circuit(2, 4, rng)
    u = circuit_to_matrix(c)
    for b in range(4):
        col = apply_circuit(c, StateVec.basis(2, b)).amps
        assert np.allclose(u[:, b], col, atol=1e-12)


def test_gate_order_is_left_to_right():
    # X then Z on one qubit: amplitudes pick up the phase after the flip
    Z = np.diag([1.0, -1.0]).astype(complex)
    c = Circuit(1, (LocalGate((0,), X), LocalGate((0,), Z)))
    assert np.allclose(circuit_to_matrix(c), Z @ X)


def test_dagger_round_trip():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        c = random_circuit(n, 5, rng)
        s = random_state(n, rng)
        back = apply_circuit(circuit_dagger(c), apply_circuit(c, s))
        assert np.linalg.norm(back.amps - s.amps) <= 1e-9


def test_dagger_phase_gate():
    d = circuit_dagger(Circuit(1, (PhaseOnZero(0.7),)))
    assert isinstance(d.gates[0], PhaseOnZero) and d.gates[0].w == -0.7


def test_measure_prefix_point_mass():
    for n in (1, 3):
        for l in range(1, n + 1):
            dist = measure_prefix(StateVec.zero(n), l)
            assert dist.probs[0] == 1.0 and dist.probs[1:].sum() == 0.0


def test_measure_prefix_exhaustive_oracle():
    rng = np.random.default_rng(17)
    s = random_state(4, rng)
    dist = measure_prefix(s, 2)
    for pattern in range(4):
        total = sum(
            abs(s.amps[b]) ** 2 for b in range(16) if b % 4 == pattern
        )
        assert abs(dist.probs[pattern] - total) < 1e-12


def test_measure_prefix_coarsening():
    # l-bit distribution is the (l+1)-bit one summed over its top bit
    rng = np.random.default_rng(19)
    s = random_state(4, rng)
    for l in range(1, 4):
        fine = measure_prefix(s, l + 1).probs
        coarse = measure_prefix(s, l).probs
        assert np.allclose(coarse, fine[: 1 << l] + fine[1 << l:], atol=1e-12)


def test_measure_prefix_sums_in_scratch_sized_chunks():
    # At n=20 the squares are summed in rows (l = 1, 4, 10) or column ranges
    # (l = 19, 20) of one scratch, never squared into an array of the
    # state's length; the sums are those of squaring the whole state,
    # exactly rounded.
    rng = np.random.default_rng(23)
    n = 20
    s = random_state(n, rng)
    for l in (1, 4, 10, 19, 20):
        dist, peak = traced_peak(lambda: measure_prefix(s, l))
        if l <= 10:
            assert peak <= 16 * _scratch_amps(1 << n) + (64 << 10)
        want = [math.fsum(col) for col in (np.abs(s.amps) ** 2).reshape(-1, 1 << l).T.tolist()]
        assert np.abs(dist.probs - want).max() <= 1e-14


def test_measure_prefix_adds_chunk_sums():
    # A few outcomes over many chunks (32 to 512 at n=20, 8 to 128 at
    # n=18): each chunk is reduced on its own before its sum is added, so
    # every probability stays within 16 ulps of the exactly rounded sum: 9
    # at most on 12 other seeded states of these sizes, where adding each
    # chunk's rows into the running sums one row at a time was 31 to 282
    # ulps off.
    rng = np.random.default_rng(29)
    for n in (18, 20):
        s = random_state(n, rng)
        for l in (1, 2, 4, 5):
            want = [math.fsum(col) for col in (np.abs(s.amps) ** 2).reshape(-1, 1 << l).T.tolist()]
            got = measure_prefix(s, l).probs
            assert np.abs(got - want).max() <= 16 * np.spacing(max(want))


def test_distribution_validation():
    with pytest.raises(DomainError):
        Distribution(1, np.array([0.5, 0.4]))
    with pytest.raises(DomainError):
        Distribution(1, np.array([1.1, -0.1]))
    with pytest.raises(DomainError):
        Distribution(1, np.array([np.nan, 1.0]))
    d = Distribution(1, np.array([1.0 + 5e-13, -5e-13]))  # tiny negatives clamp
    assert d.probs[1] == 0.0


def test_validation_errors_print_python_floats():
    cases = [
        (lambda: StateVec(1, np.array([np.nan, 1.0])),
         "state norm nan deviates from 1 beyond 1e-09"),
        (lambda: StateVec(1, np.array([2.0, 0.0])),
         "state norm 2.0 deviates from 1 beyond 1e-09"),
        (lambda: Distribution(1, np.array([-0.5, 1.5])), "negative probability -0.5"),
        (lambda: Distribution(1, np.array([0.2, 0.2])), "probabilities sum to 0.4, not 1"),
    ]
    for build, text in cases:
        with pytest.raises(DomainError) as info:
            build()
        assert str(info.value) == text


def test_circuit_to_matrix_refuses_beyond_dense_cap():
    assert tensor.DENSE_QUBIT_CAP == 10
    with pytest.raises(DomainError, match="dense matrix for n=11 exceeds cap 10"):
        circuit_to_matrix(Circuit(11, ()))


def test_default_cost_model():
    n = 5
    assert default_gate_cost(LocalGate((0, 1), haar_unitary(4, np.random.default_rng(0))), n) == 1
    assert default_gate_cost(LocalGate((0, 1, 2), haar_unitary(8, np.random.default_rng(0))), n) == 8
    assert default_gate_cost(ControlledGate(((0, 1), (1, 0), (2, 1)), 3, X), n) == 3
    assert default_gate_cost(ControlledGate(((0, 1),), 1, X), n) == 1
    assert default_gate_cost(PhaseOnZero(0.5), n) == 25
    c = Circuit(2, (LocalGate((0,), X), PhaseOnZero(1.0)))
    cost = c.cost()
    assert cost.primitive_count == 2
    assert cost.two_qubit_equiv == 1 + 4
    # a controlled gate costs max(1, controls) per branch, and counts once per branch
    mux = ControlledGate.multiplexor((0, 2, 4), 3, [1, 6, 0], np.array([X, X, X]))
    assert default_gate_cost(mux, n) == 9
    assert default_gate_cost(ControlledGate.multiplexor((), 3, [0], X[None]), n) == 1
    cost = Circuit(n, (mux, PhaseOnZero(1.0))).cost()
    assert cost.primitive_count == 4 and cost.two_qubit_equiv == 9 + 25


def test_circuit_cost_is_the_per_gate_sum():
    # Every gate kind, in a circuit whose cost sums fractions in an order
    # that rounding would show: the same sum as one model call per gate.
    rng = np.random.default_rng(44)
    n = 6
    gates = tuple(kernel_gate(n, rng) for _ in range(60)) + tuple(kernel_run(n, rng))
    assert {type(g) for g in gates} == {LocalGate, ControlledGate, PhaseOnZero}
    c = Circuit(n, gates)

    def model(gate, n):
        return 0.1 * len(gate_qubits(gate)) + n / 7

    for cost_model in (default_gate_cost, model):
        want = float(sum(cost_model(g, n) for g in gates))
        assert c.cost(cost_model).two_qubit_equiv == want
    assert c.cost().primitive_count == len(gates)
