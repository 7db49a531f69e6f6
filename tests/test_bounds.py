import math
from fractions import Fraction

import pytest

from qcapprox.bounds import (
    clipped_fraction,
    crossover_b,
    thm34_lower,
    thm41_log2,
    thm45_log2,
    thm51_log2,
    thm53_log2,
)
from qcapprox.tensor import DomainError


def test_thm34_frozen_values():
    assert thm34_lower(3, 8) == 6
    assert thm34_lower(10, 1024) == 116505
    assert thm34_lower(1, 1) == Fraction(-1, 9)


def test_thm34_vacuous_and_full_range():
    for n in (1, 3, 7):
        assert thm34_lower(n, 0) == -Fraction(n, 3) - Fraction(1, 9)
        want = Fraction(4**n, 9) - Fraction(n, 3) - Fraction(1, 9)
        assert thm34_lower(n, 1 << n) == want


def test_thm34_is_exact_rational():
    v = thm34_lower(5, 17)
    assert isinstance(v, Fraction)
    assert v == Fraction(17 * (64 - 17), 9) - Fraction(5, 3) - Fraction(1, 9)


def test_thm34_domain():
    with pytest.raises(DomainError):
        thm34_lower(0, 0)
    with pytest.raises(DomainError):
        thm34_lower(2, 5)
    with pytest.raises(DomainError):
        thm34_lower(2, -1)


def test_thm41_frozen_spot():
    # hand arithmetic: gate term log2(20), count 256*log2(20)+1,
    # ball 4*(-log2 rho(0.2)) + log2(0.98)
    proof = thm41_log2(2, 1, 2, 1, 0.1, 1.0)
    disp = thm41_log2(2, 1, 2, 1, 0.1, 1.0, variant="displayed")
    assert abs(proof - 1098.1260271179048) < 1e-9
    assert abs(disp - 1353.1260271179048) < 1e-9
    assert proof > 0  # vacuous here, consistent with universality at n=2
    assert disp > proof


def test_thm41_vacuous_at_k_zero():
    v = thm41_log2(4, 0, 1, 3, 0.2, 0.5)
    assert v > 0
    assert clipped_fraction(v) == 1.0


def test_thm41_monotone_in_k_and_b():
    for variant in ("proof", "displayed"):
        vals_k = [thm41_log2(4, k, 1, 3, 0.2, 0.5, variant) for k in range(0, 16)]
        assert all(a > b for a, b in zip(vals_k, vals_k[1:]))
        vals_b = [thm41_log2(4, 2, 1, b, 0.2, 0.5, variant) for b in range(1, 40)]
        assert all(a < b for a, b in zip(vals_b, vals_b[1:]))


def test_thm41_domain():
    with pytest.raises(DomainError):
        thm41_log2(2, 1, 1, 1, 1.0, 0.5)  # (1+alpha) eps = 1.5 > sqrt(2)
    with pytest.raises(DomainError):
        thm41_log2(2, 1, 1, 1, 0.1, -0.5)
    with pytest.raises(DomainError):
        thm41_log2(2, 1, 1, 1, 0.1, 0.5, variant="folded")
    with pytest.raises(DomainError):
        thm41_log2(2, 1, 1, 1, math.nan, 0.5)
    with pytest.raises(DomainError):
        thm41_log2(2, 1, 1, 1, 0.1, math.nan)


def test_thm45_boundary_vacuous():
    # as 2 (1+alpha) eps approaches 1 the ball term vanishes
    eps = 0.2499999999
    v = thm45_log2(4, 2, 2, 1, 3, eps, 1.0)
    count = 3 * (16 * (math.log2(3) + math.log2(4 / eps)) + 2)
    assert abs(v - count) < 1e-5
    with pytest.raises(DomainError):
        thm45_log2(4, 2, 2, 1, 3, 0.25, 1.0)


def test_thm45_sharp_never_larger():
    for k in (1, 2, 4):
        for l in (1, 2, 3):
            for b in (1, 4, 16):
                printed = thm45_log2(4, k, l, 1, b, 0.05, 1.0)
                sharp = thm45_log2(4, k, l, 1, b, 0.05, 1.0, sharp=True)
                assert sharp <= printed + 1e-12


def test_thm45_monotone_in_k_and_l():
    vals_k = [thm45_log2(4, k, 2, 1, 3, 0.05, 1.0) for k in range(0, 10)]
    assert all(a > b for a, b in zip(vals_k, vals_k[1:]))
    vals_l = [thm45_log2(4, 2, l, 1, 3, 0.05, 1.0) for l in range(1, 5)]
    assert all(a > b for a, b in zip(vals_l, vals_l[1:]))


def test_thm45_domain():
    with pytest.raises(DomainError):
        thm45_log2(4, 2, 0, 1, 3, 0.05, 1.0)
    with pytest.raises(DomainError):
        thm45_log2(4, 2, 5, 1, 3, 0.05, 1.0)
    with pytest.raises(DomainError):
        thm45_log2(4, 2, 2, 1, 3, math.nan, 1.0)


def test_thm51_frozen_values():
    assert thm51_log2(8, 256, 2, 4, 4.0) == 14080.0
    assert thm51_log2(8, 1 << 20, 2, 4, 4.0) == 14336.0 - 1048576.0
    assert thm51_log2(8, 0, 2, 4, 4.0) == 14336.0
    assert clipped_fraction(thm51_log2(8, 0, 2, 4, 4.0)) == 1.0


def test_thm51_domain():
    with pytest.raises(DomainError):
        thm51_log2(8, 256, 1, 4, 4.0)  # g >= 2
    with pytest.raises(DomainError):
        thm51_log2(8, 256, 2, 1, 4.0)  # b >= 2
    with pytest.raises(DomainError):
        thm51_log2(8, 256, 2, 4, 1.0)  # q > 1
    for q in (math.nan, math.inf):
        with pytest.raises(DomainError):
            thm51_log2(8, 256, 2, 4, q)


def test_thm53_frozen_value():
    v = thm53_log2(20, 1024, 2, 2, 4.0)
    assert abs(v - (-8886.345630835341)) < 1e-6
    assert v < 0


def test_thm53_boundary_and_linearity():
    # n = log2(4q): the domain term contributes nothing
    q = 4.0
    v = thm53_log2(4, 1 << 30, 2, 2, q)
    count = (1 + 2 + 2.0) * 2 * 512
    assert abs(v - count) < 1e-9
    base = thm53_log2(20, 1024, 2, 2, q)
    doubled = thm53_log2(20, 2048, 2, 2, q)
    assert abs((base - doubled) - (20 - math.log2(16)) * 1024) < 1e-9


def test_thm53_huge_domain_saturates():
    assert thm53_log2(20, 1 << 4000, 2, 2, 4.0) == -math.inf


def test_clipped_fraction():
    assert clipped_fraction(3.0) == 1.0
    assert clipped_fraction(0.0) == 1.0
    assert clipped_fraction(-1.0) == 0.5
    assert clipped_fraction(-1e6) == 0.0
    assert clipped_fraction(-math.inf) == 0.0


def test_crossover_immediate():
    fn = lambda b: thm51_log2(8, 16, 2, b, 4.0)
    assert crossover_b(fn) == 2


def test_crossover_frozen_and_bracketing():
    fn = lambda b: thm51_log2(8, 1 << 20, 2, b, 4.0)
    b_star = crossover_b(fn)
    assert b_star == 166
    assert fn(b_star - 1) < 0.0 <= fn(b_star)


def test_crossover_monotone_in_domain_size():
    small = crossover_b(lambda b: thm51_log2(8, 1 << 20, 2, b, 4.0))
    large = crossover_b(lambda b: thm51_log2(8, 1 << 21, 2, b, 4.0))
    assert small <= large


def test_crossover_failure_modes():
    with pytest.raises(DomainError):
        crossover_b(lambda b: -1.0)  # flat, never reaches
    with pytest.raises(DomainError):
        crossover_b(lambda b: -float(b))  # decreasing: rejected up front
    with pytest.raises(DomainError):
        crossover_b(lambda b: 0.0, target=2.0)
