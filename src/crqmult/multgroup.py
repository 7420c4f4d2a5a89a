"""Structure of the group of all multiplications, and basis-change checks.

The multiplications on a group of this class again form a group of the same
class: same critical types, same invariants, ranks cubed, and coefficients
replaced by canonical inverses supported away from the infinite primes.  This
module materializes that description, iterates it symbolically, verifies the
coset relation between two presentations of the same group, and runs the
two-basis intersection construction for rank-(1, 1) pairs.
"""

from __future__ import annotations

import math
import random

from ._record import record
from .elements import AmbientElement, format_coord
from .groups import (
    CRQGroupSpec,
    CriticalTypeData,
    MainDecomposition,
    ensure_valid,
    main_decomposition,
)
from .numth import (
    PrimeSet,
    has_factor_in,
    is_prime,
    mod_inverse,
    p0_inverse,
    prime_factors,
)
from .tables import (
    MultTable,
    decide_membership,
    generator_x,
    in_M2,
    closure_oracle,
    rescale_slot0_coords,
    sample_broken_corner_table,
    sample_m2_table,
    sample_member_table,
    sample_unscaled_border_table,
    single_entry_table,
)

# true only for type checkers, so typing stays unloaded at run time
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional

__all__ = [
    "RegulatorBlock",
    "MultGroupDescriptor",
    "RankLimitError",
    "compute_mult_group",
    "iterate_mult",
    "CosetRelation",
    "CosetReport",
    "coset_relation",
    "CrossBasisCase",
    "CrossBasisReport",
    "cross_basis_example",
]


# Bounds on user numbers that drive the work of the checks below: coset
# verdicts are compared on `samples` tables, the two-basis construction runs
# closure oracles whose G-membership scan is linear in m for each of m - 1
# witness values, and it factors s_i + m by trial division.
MAX_COSET_SAMPLES = 1000
MAX_CROSS_BASIS_M = 101
MAX_FACTORED = 10**12
# Depth-1 basis tables are dense rank^3 cubes, one per clipped type; this
# bounds the sum of those cubes (two rank-25 types fit, two rank-26 do not).
MAX_TABLE_COORDS = 32**3
# Every sampled coset table fills a dense rank^3 cube for every type; this
# bounds samples times the sum of those cubes (1000 samples of three rank-3
# types fit, 20 samples of two rank-16 types do not).
MAX_SAMPLED_COORDS = 10**5


class RankLimitError(ValueError):
    """Raised when iterated ranks or depth-1 tables exceed their bound."""


@record
class RegulatorBlock:
    """Shape of one regulator block of the multiplication group.

    The block consists of all square matrices over one type's regulator
    block whose borders are m-scaled and whose corner is m^2-scaled.
    """

    type_id: str
    rank: int
    corner_scale: int
    border_scale: int


@record
class MultGroupDescriptor:
    """Symbolic structure of the group of multiplications.

    `spec` describes it as a group of the same class, from which its regulator
    blocks and main decomposition follow; `basis` holds, per clipped type, the
    corner table generating the clipped summand, and `generator` is the
    distinguished coset generator in its standard form.  Both are omitted for
    deep iterates, whose ranks are kept symbolic.
    """

    spec: CRQGroupSpec
    basis: Optional[tuple[tuple[str, MultTable], ...]]
    generator: Optional[MultTable]
    depth: int = 1

    @property
    def regulator(self) -> tuple[RegulatorBlock, ...]:
        return tuple(RegulatorBlock(d.id, d.rank, d.m * d.m, d.m) for d in self.spec.types)

    @property
    def decomposition(self) -> MainDecomposition:
        return main_decomposition(self.spec)


def _iterated_coefficient(d: CriticalTypeData, k: int) -> int:
    # the canonical inverse depends only on the residue class, so the
    # sequence s, s', s'', ... alternates with period 2 after the first step
    if d.m == 1:
        return d.s
    first = p0_inverse(d.s, d.m, d.inf_primes)
    if k % 2 == 1:
        return first
    return p0_inverse(first, d.m, d.inf_primes)


def _iterated_rank(rank: int, k: int, max_rank: Optional[int]) -> Optional[int]:
    """rank ** (3 ** k), or None when it exceeds max_rank.

    max_rank None means no bound; compute_mult_group uses that at depth 1.

    A rank of at least 2 gives at least 2 ** (3 ** k), so the exponent is
    refused as soon as it passes the bit length of the bound, before any big
    power is built.
    """
    if rank == 1:
        return 1
    if max_rank is None:
        return rank ** (3**k)
    bits = max_rank.bit_length()
    exponent = 1
    for _ in range(k):
        exponent *= 3
        if exponent > bits:
            return None
    if exponent * (rank.bit_length() - 1) > bits:
        return None
    value = rank**exponent
    return value if value <= max_rank else None


def _structure(spec: CRQGroupSpec, k: int, max_rank: Optional[int]) -> MultGroupDescriptor:
    """Structure of a valid spec after k applications; tables only when k == 1."""
    coords = sum(d.rank**3 for d in spec.clipped) if k == 1 else 0
    if coords > MAX_TABLE_COORDS:
        raise RankLimitError(f"clipped ranks cubed sum to {coords}, over {MAX_TABLE_COORDS}")
    entries = []
    for d in spec.types:
        rank = _iterated_rank(d.rank, k, max_rank)
        if rank is None:
            raise RankLimitError(
                f"rank {d.rank}^(3^{k}) at type {d.id!r} exceeds the bound {max_rank}"
            )
        entries.append(
            CriticalTypeData(d.id, d.inf_primes, rank, d.m, _iterated_coefficient(d, k))
        )
    new_spec = CRQGroupSpec.of(entries)
    if k > 1:
        return MultGroupDescriptor(new_spec, basis=None, generator=None, depth=k)
    basis = tuple(
        (d.id, single_entry_table(d.id, d.rank, (0, 0), 0, d.m * d.m)) for d in spec.clipped
    )
    inverses = {d.id: new_spec.data_for(d.id).s for d in spec.clipped}
    return MultGroupDescriptor(new_spec, basis=basis, generator=generator_x(spec, inverses))


def compute_mult_group(spec: CRQGroupSpec) -> MultGroupDescriptor:
    """Full structure of the group of multiplications of a valid spec.

    Per type the rank is cubed and the coefficient becomes the smallest
    positive inverse of s modulo m with no factor among the infinite primes.
    The clipped basis element of each type is the corner table carrying m^2,
    and the coset generator scales those by the new coefficients over m.
    """
    ensure_valid(spec)
    return _structure(spec, 1, None)


def iterate_mult(
    spec: CRQGroupSpec, k: int, *, max_rank: int = 10**18
) -> MultGroupDescriptor:
    """Structure after k applications, with ranks computed symbolically.

    Only the first application materializes basis tables; deeper iterates
    report ranks, invariants and coefficients without building matrices.
    """
    if k < 1:
        raise ValueError(f"iteration depth must be at least 1, got {k}")
    ensure_valid(spec)
    return _structure(spec, k, max_rank)


@record
class CosetRelation:
    """Witness that two presentations generate the same membership coset."""

    gamma: int
    gamma_inverse: int
    witness: MultTable


@record
class CosetReport:
    """Outcome of comparing the presentations by d and by gamma*d + b."""

    applicable: bool
    reason: Optional[str] = None
    s_prime: Optional[tuple[tuple[str, int], ...]] = None
    relation: Optional[CosetRelation] = None
    witness_doubly_scaled: Optional[bool] = None
    samples_checked: int = 0
    verdicts_agree: Optional[bool] = None


def _strata_sample(spec: CRQGroupSpec, rng: random.Random) -> list[MultTable]:
    tables = [sample_m2_table(spec, rng)]
    member, _ = sample_member_table(spec, rng)
    tables.append(member)
    broken = sample_broken_corner_table(spec, rng)
    if broken is not None:
        tables.append(broken)
    unscaled = sample_unscaled_border_table(spec, rng)
    if unscaled is not None:
        tables.append(unscaled)
    return tables


def coset_relation(
    spec: CRQGroupSpec,
    gamma: int,
    b: AmbientElement,
    *,
    samples: int = 20,
    seed: int = 0,
) -> CosetReport:
    """Compare the membership structure under d and under gamma*d + b.

    Requires gamma coprime to the regulator index and b in the regulator,
    supported on the clipped slots.  When the shifted generator again has a
    standard representation over the same basis, the two corner generators
    differ by the inverse of gamma up to doubly scaled tables, and membership
    verdicts agree on sampled tables; otherwise the pair is reported not
    applicable.
    """
    if not 1 <= samples <= MAX_COSET_SAMPLES:
        raise ValueError(f"samples must be between 1 and {MAX_COSET_SAMPLES}, got {samples}")
    ensure_valid(spec)
    coords = samples * sum(d.rank**3 for d in spec.types)
    if coords > MAX_SAMPLED_COORDS:
        raise ValueError(
            f"samples times the cubed ranks come to {coords} coordinates, "
            f"over {MAX_SAMPLED_COORDS}"
        )
    b.check_shape(spec)
    if math.gcd(gamma, spec.n) != 1:
        raise ValueError(f"gamma = {gamma} is not coprime to the regulator index {spec.n}")
    t0 = set(spec.t0_ids)
    for tid, _, _, nums in b.parts:
        if tid not in t0:
            raise ValueError(f"shift element touches unclipped type {tid!r}")
        if any(nums[1:]):
            raise ValueError(f"shift element touches a non-clipped slot of type {tid!r}")
    outside = b.outside_regulator(spec)
    if outside is not None:
        raise ValueError(f"shift element lies outside the regulator at type {outside[0]!r}")

    s_prime: dict[str, int] = {}
    for d in spec.clipped:
        part = b.part(d.id)
        b0, den = (part[2][0], part[1]) if part else (0, 1)
        # gamma * s + m * b0 / den, over den
        num = gamma * d.s * den + d.m * b0
        if num % den:
            return CosetReport(
                applicable=False,
                reason=f"slot numerator {format_coord(num, den)} at type {d.id!r} "
                "is not an integer",
            )
        value = num // den
        if has_factor_in(value, d.inf_primes):
            return CosetReport(
                applicable=False,
                reason=(
                    f"slot numerator {value} at type {d.id!r} has a factor among "
                    "the infinite primes"
                ),
            )
        s_prime[d.id] = value

    shifted_spec = spec.with_coefficients(s_prime)
    x_shifted = generator_x(shifted_spec)
    x_original = generator_x(spec)
    gamma_inv = mod_inverse(gamma, spec.n)
    witness = x_shifted - gamma_inv * x_original
    relation = CosetRelation(gamma, gamma_inv, witness)
    witness_ok = in_M2(spec, witness)

    rng = random.Random(seed)
    agree = True
    checked = 0
    while checked < samples:
        for table in _strata_sample(spec, rng)[: samples - checked]:
            original = decide_membership(spec, table)
            shifted = decide_membership(shifted_spec, table)
            if original.member != shifted.member:
                agree = False
            elif original.member:
                alpha = original.alpha[0]
                alpha_shifted = shifted.alpha[0]
                if (alpha_shifted - gamma * alpha) % spec.n != 0:
                    agree = False
            checked += 1
    return CosetReport(
        applicable=True,
        s_prime=tuple(sorted(s_prime.items())),
        relation=relation,
        witness_doubly_scaled=witness_ok,
        samples_checked=checked,
        verdicts_agree=agree,
    )


@record
class CrossBasisCase:
    """One tested witness value in the two-basis intersection construction."""

    alpha: int
    member_first: bool
    rejected_second: bool
    member_second: bool
    rejected_first: bool
    oracles_consistent: bool

    @property
    def ok(self) -> bool:
        return (
            self.member_first
            and self.rejected_second
            and self.member_second
            and self.rejected_first
            and self.oracles_consistent
        )


@record
class CrossBasisReport:
    """Result of intersecting the membership sets of two bases of one group."""

    s1: int
    s2: int
    m: int
    inf_primes_1: tuple[int, ...]
    inf_primes_2: tuple[int, ...]
    cases: tuple[CrossBasisCase, ...]
    doubly_scaled_member_both: bool

    @property
    def intersection_is_regulator(self) -> bool:
        return self.doubly_scaled_member_both and all(c.ok for c in self.cases)


def _fresh_prime(excluded: set[int], avoid: int) -> int:
    """Least prime outside `excluded` that does not divide `avoid`."""
    candidate = 2
    while candidate in excluded or avoid % candidate == 0 or not is_prime(candidate):
        candidate += 1
    return candidate


def cross_basis_example(s1: int, s2: int, m: int, *, seed: int = 0) -> CrossBasisReport:
    """Two rank-1 types sharing a prime invariant, probed through two bases.

    Requires s1, s2 > 1 coprime, m prime dividing neither s1, s2 nor
    s1^2 - s2^2.  The infinite primes of each type are the prime factors of
    s_i + m (plus a fresh distinguishing prime when the factor sets nest), so
    the vectors (s_i + m) e_i form a second basis of the regulator.  Every
    non-regulator member with respect to either basis is rejected with
    respect to the other, while doubly scaled tables pass both; the two
    membership sets therefore intersect exactly in the regulator
    multiplications.
    """
    from fractions import Fraction

    if s1 <= 1 or s2 <= 1:
        raise ValueError("s1 and s2 must both exceed 1")
    if math.gcd(s1, s2) != 1:
        raise ValueError(f"s1 and s2 must be coprime, gcd is {math.gcd(s1, s2)}")
    if not is_prime(m):
        raise ValueError(f"m = {m} must be prime")
    if s1 % m == 0 or s2 % m == 0:
        raise ValueError(f"m = {m} must not divide s1 or s2")
    if (s1 * s1 - s2 * s2) % m == 0:
        raise ValueError(f"m = {m} must not divide s1^2 - s2^2")
    if m > MAX_CROSS_BASIS_M:
        raise ValueError(f"m = {m} exceeds the limit {MAX_CROSS_BASIS_M}")
    if max(s1, s2) + m > MAX_FACTORED:
        raise ValueError(f"s1 + m and s2 + m must not exceed {MAX_FACTORED}")

    inf1 = set(prime_factors(s1 + m))
    inf2 = set(prime_factors(s2 + m))
    if inf1 <= inf2:
        inf1.add(_fresh_prime(inf1 | inf2, m * s1 * s2))
    if inf2 <= inf1:
        inf2.add(_fresh_prime(inf1 | inf2, m * s1 * s2))

    first = CriticalTypeData("t1", PrimeSet.of(inf1), 1, m, s1)
    second = CriticalTypeData("t2", PrimeSet.of(inf2), 1, m, s2)
    spec_first = CRQGroupSpec.of([first, second])
    violations = spec_first.violations
    if violations:
        raise ValueError("construction produced an invalid spec: " + str(violations[0]))
    spec_second = spec_first.with_coefficients({"t1": 1, "t2": 1})
    units = {"t1": Fraction(s1 + m), "t2": Fraction(s2 + m)}
    inverse_units = {tid: 1 / w for tid, w in units.items()}

    rng = random.Random(seed)
    zero = MultTable.zero()
    cases = []
    for alpha in range(1, m):
        noisy = (sample_m2_table(spec_first, rng), sample_m2_table(spec_second, rng))
        # one flag per CrossBasisCase field, each required of the exact and the noisy trial
        flags = [True] * 5
        for noise_first, noise_second in ((zero, zero), noisy):
            table_first = alpha * generator_x(spec_first) + noise_first
            v_first = decide_membership(spec_first, table_first)
            table_as_second = rescale_slot0_coords(spec_first, table_first, units)
            v_cross = decide_membership(spec_second, table_as_second)

            table_second = alpha * generator_x(spec_second) + noise_second
            v_second = decide_membership(spec_second, table_second)
            table_as_first = rescale_slot0_coords(spec_first, table_second, inverse_units)
            v_back = decide_membership(spec_first, table_as_first)

            oracles = (
                closure_oracle(spec_first, table_first) == v_first.member
                and closure_oracle(spec_second, table_as_second) == v_cross.member
                and closure_oracle(spec_second, table_second) == v_second.member
                and closure_oracle(spec_first, table_as_first) == v_back.member
            )
            outcome = (
                v_first.member and v_first.alpha[0] == alpha % m,
                not v_cross.member,
                v_second.member and v_second.alpha[0] == alpha % m,
                not v_back.member,
                oracles,
            )
            flags = [a and b for a, b in zip(flags, outcome)]
        cases.append(CrossBasisCase(alpha, *flags))

    regulator_table = sample_m2_table(spec_first, rng)
    v_reg_first = decide_membership(spec_first, regulator_table)
    reg_as_second = rescale_slot0_coords(spec_first, regulator_table, units)
    v_reg_second = decide_membership(spec_second, reg_as_second)
    doubly_ok = (
        v_reg_first.member
        and v_reg_first.alpha[0] == 0
        and v_reg_second.member
        and v_reg_second.alpha[0] == 0
    )

    return CrossBasisReport(
        s1=s1,
        s2=s2,
        m=m,
        inf_primes_1=tuple(sorted(inf1)),
        inf_primes_2=tuple(sorted(inf2)),
        cases=tuple(cases),
        doubly_scaled_member_both=doubly_ok,
    )
