"""End-to-end acceptance checks, one per headline guarantee.

Run with `pytest -s tests/test_acceptance.py` to see one [Cxx] PASS/FAIL
line per criterion.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from qcapprox import (
    Circuit,
    ControlledGate,
    LocalGate,
    OrthoSeq,
    PhaseOnZero,
    StateVec,
    apply_circuit,
    extend_to_unitary,
    prepare_state,
    synthesize_transitive,
)
from qcapprox.bounds import (
    crossover_b,
    thm34_lower,
    thm41_log2,
    thm45_log2,
    thm51_log2,
    thm53_log2,
)
from qcapprox.linalg import eig_unitary, gram_schmidt, unitary_from_congruence
from qcapprox.measure import (
    RngStream,
    mc_simplex_ball,
    mc_sphere_cap,
    sample_haar_state,
    sphere_cap_bound,
)
from qcapprox.metrics import frobenius_norm, tv_operators, tv_states, two_norm, weak_two_norm
from qcapprox.nets import NetSpec, nearest_net_index, net_cardinality, net_point
from qcapprox.problems import (
    DecisionProblem,
    GuessProblem,
    decision_advantage,
    guess_advantage,
)
from qcapprox.tensor import circuit_to_matrix
from helpers import haar_unitary, random_circuit, random_state


@contextmanager
def report(cid, desc):
    try:
        yield
    except Exception:
        print(f"[{cid}] FAIL {desc}")
        raise
    print(f"[{cid}] PASS {desc}")


def test_c01_state_preparation():
    with report("C01", "state preparation exact for 100 Haar states per n in 1..8"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for n in range(1, 9):
            for _ in range(100):
                u = random_state(n, rng)
                rep = prepare_state(u)
                out = apply_circuit(rep.circuit, StateVec.zero(n))
                assert np.linalg.norm(out.amps - u.amps) <= 1e-9
                controlled = sum(
                    isinstance(g, ControlledGate) for g in rep.circuit.gates
                )
                assert controlled <= (1 << n) - 1
                branches = sum(len(g.pattern) for g in rep.circuit.gates if isinstance(g, ControlledGate))
                assert branches <= (1 << n) - 1
                assert rep.two_qubit_equiv <= n * (1 << n)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_c02_unitary_extension():
    with report("C02", "200 row extensions: rows kept, unitary, >= m-k unit eigenvalues"):
        rng = np.random.default_rng(102)
        for _ in range(200):
            m = int(rng.choice([4, 8, 16]))
            k = int(rng.integers(1, 5))
            rows = gram_schmidt(
                [rng.normal(size=m) + 1j * rng.normal(size=m) for _ in range(k)]
            )
            v = np.array(rows)
            ext = extend_to_unitary(v)
            assert np.linalg.norm(ext[:k, :] - v) <= 1e-8
            assert np.linalg.norm(ext.conj().T @ ext - np.eye(m)) <= 1e-8
            lam, _ = eig_unitary(ext)
            assert int(np.sum(np.abs(lam - 1) <= 1e-7)) >= m - k


def test_c03_transitive_synthesis():
    with report("C03", "transitive circuits hit every target column, <= k phase gates"):
        rng = np.random.default_rng(103)
        for n in (2, 3, 4):
            for k in (1, 2, 4):
                for _ in range(50):
                    u = haar_unitary(1 << n, rng)
                    seq = OrthoSeq(n, tuple(StateVec(n, u[:, i]) for i in range(k)))
                    rep = synthesize_transitive(seq)
                    for i in range(k):
                        out = apply_circuit(rep.circuit, StateVec.basis(n, i))
                        assert np.linalg.norm(out.amps - u[:, i]) <= 1e-7
                    phases = sum(
                        isinstance(g, PhaseOnZero) for g in rep.circuit.gates
                    )
                    assert phases <= k


def test_c04_congruence_matching():
    with report("C04", "500 congruent pairs matched by a unitary within 1e-7"):
        rng = np.random.default_rng(104)
        for _ in range(500):
            m = int(rng.integers(1, 9))
            k = int(rng.integers(1, m + 1))
            x = rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
            if k > 1 and rng.random() < 0.25:
                x[:, k - 1] = x[:, 0] * complex(rng.normal(), rng.normal())
            r = haar_unitary(m, rng)
            y = r @ x
            u = unitary_from_congruence(x, y)
            assert np.linalg.norm(u @ x - y) <= 1e-7


def test_c05_metric_inequalities():
    with report("C05", "metric inequalities hold on 1000 instances each"):
        rng = np.random.default_rng(105)
        ns = (2, 3, 4)
        # prefix monotonicity and the Euclidean bound on states
        for i in range(1000):
            n = ns[i % 3]
            u = random_state(n, rng)
            amps = u.amps + 0.2 * (
                rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            )
            v = StateVec(n, amps / np.linalg.norm(amps))
            gap = 2 * np.linalg.norm(u.amps - v.amps)
            prev = 0.0
            for l in range(1, n + 1):
                tv = tv_states(u, v, l)
                assert tv >= prev - 1e-10
                assert tv <= gap + 1e-10
                prev = tv
        # norm chain and tv bounds on operators
        for i in range(1000):
            n = ns[i % 3]
            d = 1 << n
            u, v = haar_unitary(d, rng), haar_unitary(d, rng)
            a = u - v
            k = int(rng.integers(1, d))
            l = int(rng.integers(1, n))
            assert weak_two_norm(a, k) <= weak_two_norm(a, k + 1) + 1e-10
            assert weak_two_norm(a, k) <= two_norm(a) + 1e-10
            assert two_norm(a) <= frobenius_norm(a) + 1e-10
            assert tv_operators(u, v, l, k) <= tv_operators(u, v, l + 1, k + 1) + 1e-10
            assert tv_operators(u, v, l, k) <= 2 * weak_two_norm(a, k) + 1e-10
        # product approximation
        for i in range(1000):
            n = ns[i % 3]
            d = 1 << n
            u1, u2 = haar_unitary(d, rng), haar_unitary(d, rng)
            v1, v2 = haar_unitary(d, rng), haar_unitary(d, rng)
            k = int(rng.integers(1, d + 1))
            lhs = weak_two_norm(u1 @ u2 - v1 @ v2, k)
            assert lhs <= two_norm(u1 - v1) + two_norm(u2 - v2) + 1e-10


def test_c06_sphere_cap_bound():
    with report("C06", "sphere-cap MC under the closed-form bound, 16 settings x 1e6"):
        start = time.perf_counter()
        frozen = sphere_cap_bound(0.5, 3)
        assert abs(frozen - 0.0135920560722) / 0.0135920560722 < 1e-6
        stream_id = 0
        for m in (3, 4, 5, 6):
            for eps in (0.3, 0.5, 0.8, 1.2):
                est = mc_sphere_cap(eps, m, 1_000_000, RngStream(2024, stream_id))
                stream_id += 1
                assert est.within_bound(3.0), f"m={m} eps={eps}: {est}"
                if m == 3 and eps == 0.5:
                    assert est.estimate <= est.bound
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_c07_simplex_ball_bound():
    with report("C07", "simplex-ball MC under (2 eps)^(N-1), 9 settings x 1e6"):
        stream_id = 100
        for dim in (2, 4, 8):
            for eps in (0.1, 0.25, 0.4):
                est = mc_simplex_ball(eps, dim, 1_000_000, RngStream(2024, stream_id))
                stream_id += 1
                assert est.within_bound(3.0), f"N={dim} eps={eps}: {est}"


def test_c08_net_covering():
    with report("C08", "delta-net covers 1000 Haar unitaries at delta 0.5 and 1.0"):
        rng = np.random.default_rng(108)
        for delta in (0.5, 1.0):
            spec = NetSpec(1, delta)
            violations = 0
            for _ in range(1000):
                u = haar_unitary(2, rng)
                p = net_point(spec, nearest_net_index(spec, u))
                if two_norm(u - p) > delta + 1e-12:
                    violations += 1
            assert violations == 0
        _, bound = net_cardinality(NetSpec(1, 1.0))
        assert bound == 65536


def test_c09_bound_tables():
    with report("C09", "bound formulas: exact spot values and grid monotonicity"):
        assert thm34_lower(3, 8) == 6
        # thm41: decreasing in k, increasing in b (both variants)
        for variant in ("proof", "displayed"):
            ks = [thm41_log2(4, k, 1, 3, 0.2, 0.5, variant) for k in range(0, 50)]
            assert all(a > b for a, b in zip(ks, ks[1:]))
            bs = [thm41_log2(4, 2, 1, b, 0.2, 0.5, variant) for b in range(1, 51)]
            assert all(a < b for a, b in zip(bs, bs[1:]))
        # thm45: decreasing in k and l, increasing in b
        ks = [thm45_log2(6, k, 2, 1, 3, 0.05, 1.0) for k in range(0, 50)]
        assert all(a > b for a, b in zip(ks, ks[1:]))
        ls = [thm45_log2(6, 2, l, 1, 3, 0.05, 1.0) for l in range(1, 7)]
        assert all(a > b for a, b in zip(ls, ls[1:]))
        bs = [thm45_log2(6, 2, 2, 1, b, 0.05, 1.0) for b in range(1, 51)]
        assert all(a < b for a, b in zip(bs, bs[1:]))
        # spot values to six significant figures
        assert thm51_log2(8, 256, 2, 4, 4.0) == 14080.0
        assert thm51_log2(8, 1 << 20, 2, 4, 4.0) == -1034240.0
        v = thm53_log2(20, 1024, 2, 2, 4.0)
        assert abs(v - (-8886.345630835341)) / 8886.345630835341 < 1e-6


def test_c10_oracle_semantics():
    with report("C10", "advantage semantics agree with the amplitude-level oracle"):
        n = 2
        ident = DecisionProblem(n, {b: b & 1 for b in range(1 << n)})
        adv = decision_advantage(Circuit(n, ()), ident)
        assert adv.p_star == 1.0 and adv.q == 1.0
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        hadv = decision_advantage(
            Circuit(1, (LocalGate((0,), h),)), DecisionProblem(1, {0: 0, 1: 1})
        )
        assert hadv.q is None

        rng = np.random.default_rng(110)
        for trial in range(50):
            nprob = int(rng.integers(1, 4))
            nprime = int(rng.integers(nprob, 5))
            circuit = random_circuit(nprime, 4, rng)
            u = circuit_to_matrix(circuit)
            size = int(rng.integers(1, (1 << nprob) + 1))
            domain = [int(b) for b in rng.choice(1 << nprob, size=size, replace=False)]
            if trial % 2 == 0:
                f = {b: int(rng.integers(0, 2)) for b in domain}
                got = decision_advantage(circuit, DecisionProblem(nprob, f))
                p_star = min(
                    sum(
                        abs(u[out, b]) ** 2
                        for out in range(1 << nprime)
                        if (out & 1) == f[b]
                    )
                    for b in domain
                )
            else:
                f = {b: int(rng.integers(0, 1 << nprob)) for b in domain}
                got = guess_advantage(circuit, GuessProblem(nprob, f))
                p_star = min(
                    sum(
                        abs(u[out, b]) ** 2
                        for out in range(1 << nprime)
                        if out % (1 << nprob) == f[b]
                    )
                    for b in domain
                )
            assert abs(got.p_star - p_star) <= 1e-12


def test_c11_asymptotic_claims_scope():
    with report("C11", "asymptotic headline claims covered by crossover bracketing"):
        print(
            "note: the headline hardness statements are asymptotic counting "
            "results; there is no finite experiment to replicate them at full "
            "scale. They are exercised here through the bound property suites "
            "and the crossover bracketing below."
        )
        fn = lambda b: thm51_log2(8, 1 << 20, 2, b, 4.0)
        b_star = crossover_b(fn)
        assert b_star == 166
        assert fn(b_star - 1) < 0.0 <= fn(b_star)
        fn53 = lambda b: thm53_log2(16, 1 << 16, 2, b, 4.0)
        b53 = crossover_b(fn53)
        assert fn53(b53 - 1) < 0.0 <= fn53(b53)
        assert crossover_b(fn, target=0.5) <= b_star
