"""Exact integer arithmetic: modular inverses, prime sets, CRT, lcm of the others.

Everything works on arbitrary-precision Python integers.  Domain violations
raise ValueError, and numbers past a work bound its subclass LimitError; an
unsolvable congruence system is an absent return value, not an error.
"""

from __future__ import annotations

import math

from ._record import record

# true only for type checkers, so typing and fractions stay unloaded at run time
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Iterable, Iterator, Mapping, Optional, Sequence

# Miller-Rabin bases; MAX_PRIME_TESTED is the least strong pseudoprime to all of them
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME_TESTED = 3317044064679887385961981


class LimitError(ValueError):
    """`value` past a work bound, the constant `name` = `bound`; an int too long to write
    has its size in words as its value."""

    def __init__(self, what: str, value: int, name: str, bound: int):
        try:
            written = str(value)
        except ValueError:
            value = written = f"a {value.bit_length()}-bit integer"
        super().__init__(f"{what} reaches {written}, past the bound {name} = {bound}")
        self.name, self.value, self.bound = name, value, bound


def mod_inverse(s: int, m: int) -> int:
    """Least nonnegative x with s*x == 1 (mod m); returns 0 when m == 1."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    try:
        return pow(s, -1, m)
    except ValueError:
        raise ValueError(f"{s} is not invertible modulo {m}") from None


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n below MAX_PRIME_TESTED."""
    if n >= MAX_PRIME_TESTED:
        raise LimitError("a number tested for primality", n, "MAX_PRIME_TESTED", MAX_PRIME_TESTED)
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization of |n| as a prime -> exponent map; n must be nonzero."""
    if n == 0:
        raise ValueError("0 has no prime factorization")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def has_factor_in(x: int, primes: Iterable[int]) -> bool:
    """True when some prime in the set divides x; x must be nonzero."""
    if x == 0:
        raise ValueError("0 is divisible by every prime")
    return any(x % p == 0 for p in primes)


def coprime_part(x: int, primes: Iterable[int]) -> int:
    """|x| with every factor from the prime set divided out."""
    if x == 0:
        raise ValueError("0 has no coprime part")
    x = abs(x)
    for p in primes:
        while x % p == 0:
            x //= p
    return x


def p0_class_representative(residue: int, m: int, inf_primes: Iterable[int]) -> int:
    """Smallest positive member of residue + m*Z with no factor in inf_primes.

    Requires that no listed prime divides m, which guarantees the class
    contains such a member.
    """
    inf = tuple(inf_primes)
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    for p in inf:
        if m % p == 0:
            raise ValueError(f"modulus {m} is divisible by excluded prime {p}")
    if m == 1:
        return 1
    x = residue % m
    if x == 0:
        x = m
    while has_factor_in(x, inf):
        x += m
    return x


def p0_inverse(s: int, m: int, inf_primes: Iterable[int]) -> int:
    """Smallest positive inverse of s modulo m whose factors all avoid inf_primes."""
    if m == 1:
        return 1
    return p0_class_representative(mod_inverse(s, m), m, inf_primes)


def crt_solve(congruences: Iterable[tuple[int, int]]) -> Optional[tuple[int, int]]:
    """Solve x == r_i (mod m_i) for possibly non-coprime moduli.

    Returns (residue, lcm of moduli) with 0 <= residue < lcm, or None when the
    system is inconsistent.  The empty system yields (0, 1).
    """
    residue, modulus = 0, 1
    for r, m in congruences:
        if m < 1:
            raise ValueError(f"moduli must be positive, got {m}")
        g = math.gcd(modulus, m)
        if (r - residue) % g != 0:
            return None
        step = m // g
        t = (r - residue) // g * mod_inverse(modulus // g, step) % step
        lcm = modulus * step
        residue = (residue + modulus * t) % lcm
        modulus = lcm
    return residue, modulus


def lcm_of_others(values: Sequence[int]) -> list[int]:
    """Per index i, the lcm of every value but values[i]; a lone value gets 1.

    One suffix pass and one prefix pass, so k values cost O(k) lcm calls.
    """
    for v in values:
        if v < 1:
            raise ValueError(f"invariants must be positive, got {v}")
    # suffix[i] is the lcm of values[i:]; the running prefix is that of values[:i]
    suffix = [1] * (len(values) + 1)
    for i in range(len(values) - 1, -1, -1):
        suffix[i] = math.lcm(values[i], suffix[i + 1])
    out = []
    prefix = 1
    for i, v in enumerate(values):
        out.append(math.lcm(prefix, suffix[i + 1]))
        prefix = math.lcm(prefix, v)
    return out


def condition_m_check(ms: Mapping[object, int]) -> bool:
    """True when every value divides the lcm of the remaining values.

    Equivalent to: each prime power dividing one value divides at least one
    other value as well.  A single value passes only when it equals 1.
    """
    values = list(ms.values())
    return all(rest % v == 0 for v, rest in zip(values, lcm_of_others(values)))


# Not exported: only perfbench's tracer, which looks it up by name, and the tests use it.
def fraction_residue(value: Fraction, modulus: int) -> int:
    """Image of a fraction with modulus-coprime denominator in Z/modulus."""
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    if modulus == 1:
        return 0
    den_inv = mod_inverse(value.denominator % modulus, modulus)
    return value.numerator * den_inv % modulus


@record
class PrimeSet:
    """Finite set of distinct primes stored in increasing order."""

    primes: tuple[int, ...]

    def __init__(self, primes: Iterable[int] = ()):
        """The distinct primes given; a member not exactly an int, or not prime, is refused."""
        try:
            canonical = tuple(sorted(set(primes)))
        except TypeError:  # not iterable, or members that do not hash or compare
            raise ValueError("inf_primes must be a list of integers") from None
        for p in canonical:
            if type(p) is not int:
                if all(isinstance(q, int) for q in canonical):
                    raise ValueError("inf_primes must not contain booleans")
                raise ValueError("inf_primes must be a list of integers")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "primes", canonical)

    def __contains__(self, p: object) -> bool:
        return p in self.primes

    def __iter__(self) -> Iterator[int]:
        return iter(self.primes)

    def __len__(self) -> int:
        return len(self.primes)
