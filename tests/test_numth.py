"""Integer arithmetic helpers, checked against brute-force scans."""

import random
from fractions import Fraction

import pytest

from crqmult.numth import (
    MAX_PRIME_TESTED,
    LimitError,
    PrimeSet,
    condition_m_check,
    coprime_part,
    crt_solve,
    fraction_residue,
    has_factor_in,
    is_prime,
    mod_inverse,
    p0_class_representative,
    p0_inverse,
    prime_factors,
)
from reference import euler_phi, is_p_integer, lcm_all


def test_mod_inverse_frozen_values():
    assert mod_inverse(3, 7) == 5
    assert mod_inverse(1, 1) == 0
    assert mod_inverse(-3, 7) == 2
    assert mod_inverse(37, 32) == 13


def test_mod_inverse_rejects_non_units():
    with pytest.raises(ValueError):
        mod_inverse(6, 9)
    with pytest.raises(ValueError):
        mod_inverse(0, 5)


def test_mod_inverse_against_scan():
    for m in range(1, 40):
        for s in range(1, m + 1):
            if gcd_scan(s, m) != 1:
                continue
            inv = mod_inverse(s, m)
            assert 0 <= inv < max(m, 1)
            assert (s * inv) % m == 1 % m


def gcd_scan(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


def test_lcm_all():
    assert lcm_all([]) == 1
    assert lcm_all([4, 6, 12]) == 12
    assert lcm_all([7]) == 7
    with pytest.raises(ValueError):
        lcm_all([4, 0])


def test_is_prime_matches_trial_division():
    def slow(n):
        if n < 2:
            return False
        return all(n % k for k in range(2, int(n**0.5) + 1))

    for n in range(0, 2000):
        assert is_prime(n) == slow(n), n
    # a few larger witnesses on both sides
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_is_prime_rejects_strong_pseudoprimes_and_refuses_past_its_bound():
    # a strong pseudoprime to every prime base up to 37
    assert is_prime(399165290221) and is_prime(798330580441)
    assert not is_prime(399165290221 * 798330580441)
    # the least strong pseudoprime to every prime base up to 41, and beyond
    for n in (3317044064679887385961981, 10**30 + 57):
        with pytest.raises(ValueError):
            is_prime(n)
    with pytest.raises(ValueError):
        PrimeSet([5, 3317044064679887385961981])


def test_prime_factors():
    assert prime_factors(1) == {}
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
    assert prime_factors(-360) == {2: 3, 3: 2, 5: 1}
    with pytest.raises(ValueError):
        prime_factors(0)


def test_euler_phi_frozen_and_scan():
    assert euler_phi(1) == 1
    assert euler_phi(7) == 6
    assert euler_phi(12) == 4
    for n in range(1, 120):
        count = sum(1 for k in range(1, n + 1) if gcd_scan(k, n) == 1)
        assert euler_phi(n) == count


def test_is_p_integer():
    assert is_p_integer(1, (2, 3))
    assert is_p_integer(-12, (2, 3))
    assert not is_p_integer(10, (2, 3))
    assert not is_p_integer(7, ())
    assert is_p_integer(-1, ())
    assert is_p_integer(7, (7,))
    with pytest.raises(ValueError):
        is_p_integer(0, (2,))


def test_has_factor_in_and_coprime_part():
    assert has_factor_in(6, (3, 5))
    assert not has_factor_in(7, (3, 5))
    assert coprime_part(360, (2, 3)) == 5
    assert coprime_part(7, (7,)) == 1
    assert coprime_part(-12, (2,)) == 3


def test_p0_class_representative():
    # smallest positive member of the class avoiding the given primes
    assert p0_class_representative(5, 32, (5,)) == 37
    assert p0_class_representative(5, 32, ()) == 5
    assert p0_class_representative(0, 7, ()) == 7
    assert p0_class_representative(3, 1, (2,)) == 1
    with pytest.raises(ValueError):
        p0_class_representative(3, 6, (2,))  # 2 divides the modulus


def test_p0_inverse_frozen_values():
    assert p0_inverse(3, 7, (5,)) == 12  # 5 is excluded, 5 + 7 = 12
    assert p0_inverse(2, 7, (5,)) == 4
    assert p0_inverse(3, 7, (2, 5)) == 19  # 5 and 12 both excluded
    assert p0_inverse(1, 1, (2,)) == 1
    assert p0_inverse(6, 1, (5, 7)) == 1  # modulo 1 the class is Z, whose least positive is 1


def test_p0_inverse_is_an_inverse_and_p0():
    rng = random.Random(20240)
    pools = [(), (2,), (5,), (2, 5), (3, 7, 11)]
    for _ in range(300):
        m = rng.randrange(2, 60)
        s = rng.randrange(1, m)
        if gcd_scan(s, m) != 1:
            continue
        for pool in pools:
            if any(m % p == 0 for p in pool):
                continue
            t = p0_inverse(s, m, pool)
            assert t > 0
            assert (s * t) % m == 1
            assert is_p_integer(t, ()) or not has_factor_in(t, pool)


def test_crt_solve_frozen():
    assert crt_solve([]) == (0, 1)
    assert crt_solve([(1, 2), (2, 3)]) == (5, 6)
    assert crt_solve([(1, 4), (3, 6)]) == (9, 12)
    assert crt_solve([(0, 4), (1, 6)]) is None
    assert crt_solve([(3, 7)]) == (3, 7)


def test_crt_solve_against_scan():
    rng = random.Random(7)
    for _ in range(200):
        count = rng.randrange(1, 4)
        congruences = []
        for _ in range(count):
            m = rng.randrange(1, 13)
            congruences.append((rng.randrange(0, max(m, 1)), m))
        modulus = lcm_all([m for _, m in congruences])
        matches = [
            k
            for k in range(modulus)
            if all((k - r) % m == 0 for r, m in congruences)
        ]
        result = crt_solve(congruences)
        if not matches:
            assert result is None
        else:
            assert result == (matches[0], modulus)
            assert len(matches) == 1


def test_condition_m_check():
    # every prime power present in one value must recur in another
    assert condition_m_check({"a": 7, "b": 7})
    assert condition_m_check({"a": 6, "b": 2, "c": 3})
    assert not condition_m_check({"a": 7})
    assert not condition_m_check({"a": 4, "b": 2})
    assert condition_m_check({})
    assert condition_m_check({"a": 1})
    assert condition_m_check({"a": 12, "b": 4, "c": 3})


def test_condition_m_matches_prime_power_definition():
    def literal(values):
        for i, m in enumerate(values):
            for p, k in prime_factors(m).items():
                others = [v for j, v in enumerate(values) if j != i]
                if not any(o % p**k == 0 for o in others):
                    return False
        return True

    rng = random.Random(99)
    for _ in range(500):
        values = [rng.randrange(1, 37) for _ in range(rng.randrange(1, 5))]
        mapping = {str(i): v for i, v in enumerate(values)}
        assert condition_m_check(mapping) == literal(values), values


def test_fraction_residue():
    assert fraction_residue(Fraction(3, 5), 7) == 2  # 3 * 5^-1 = 3 * 3 = 9
    assert fraction_residue(Fraction(4), 7) == 4
    assert fraction_residue(Fraction(-1, 3), 7) == 2
    assert fraction_residue(Fraction(1, 2), 1) == 0
    with pytest.raises(ValueError):
        fraction_residue(Fraction(1, 7), 7)


def test_prime_set_canonical():
    ps = PrimeSet([5, 2, 3])
    assert ps.primes == (2, 3, 5)
    assert 3 in ps
    assert 7 not in ps
    assert len(ps) == 3
    assert list(ps) == [2, 3, 5]
    assert PrimeSet([]) == PrimeSet(())
    # the one constructor sorts and deduplicates any input, so equal sets are equal values
    for primes in ((5, 2, 3), (3, 5, 2, 3), [5, 5, 3, 2, 2], {5, 3, 2}, iter((5, 3, 2))):
        built = PrimeSet(primes)
        assert built.primes == (2, 3, 5) and built == ps and hash(built) == hash(ps)


def test_prime_set_rejects_bad_input():
    with pytest.raises(ValueError, match="^4 is not prime$"):
        PrimeSet((4,))
    with pytest.raises(LimitError):
        PrimeSet((5, MAX_PRIME_TESTED + 2))
    assert PrimeSet((2, 2)) == PrimeSet((2,))  # a repeat is dropped, not refused
