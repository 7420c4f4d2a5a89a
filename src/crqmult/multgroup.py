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
    LimitError,
    PrimeSet,
    has_factor_in,
    is_prime,
    mod_inverse,
    p0_inverse,
    prime_factors,
)
from .tables import (
    MultTable,
    corner_table,
    decide_membership,
    generator_x,
    in_M2,
    closure_oracle,
    rescale_slot0_coords,
    sample_broken_corner_table,
    sample_m2_table,
    sample_member_table,
    sample_unscaled_border_table,
)

# true only for type checkers, so typing stays unloaded at run time
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional


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
# Iterated ranks stay symbolic, and rank^(3^k) grows with the depth k alone;
# this bounds every iterated rank (a rank above 10**6 is refused at depth 1).
MAX_ITERATED_RANK = 10**18


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
    first = p0_inverse(d.s, d.m, d.inf_primes)
    if k % 2 == 1:
        return first
    return p0_inverse(first, d.m, d.inf_primes)


def _iterated_rank(rank: int, k: int) -> int:
    """rank ** (3 ** k), or its first power rank ** (3 ** j) past MAX_ITERATED_RANK.

    The rank is cubed one step at a time and stops at the first power past
    the bound, so no power past the cube of the bound or of the rank is built.
    """
    if rank == 1:
        return 1
    for _ in range(k):
        rank = rank**3
        if rank > MAX_ITERATED_RANK:
            break
    return rank


def compute_mult_group(spec: CRQGroupSpec) -> MultGroupDescriptor:
    """Full structure of the group of multiplications of a valid spec.

    Per type the rank is cubed and the coefficient becomes the smallest
    positive inverse of s modulo m with no factor among the infinite primes.
    The clipped basis element of each type is the corner table carrying m^2,
    and the coset generator scales those by the new coefficients over m.
    """
    return iterate_mult(spec, 1)


def iterate_mult(spec: CRQGroupSpec, k: int) -> MultGroupDescriptor:
    """Structure after k applications, with ranks computed symbolically.

    Only the first application materializes basis tables; deeper iterates
    report ranks, invariants and coefficients without building matrices.
    k must be a positive int, and every iterated rank at most MAX_ITERATED_RANK.
    """
    if type(k) is not int or k < 1:
        raise ValueError(f"iteration depth must be a positive int, got {k!r}")
    ensure_valid(spec)
    coords = sum(d.rank**3 for d in spec.clipped) if k == 1 else 0
    if coords > MAX_TABLE_COORDS:
        raise LimitError("the sum of clipped rank^3", coords, "MAX_TABLE_COORDS", MAX_TABLE_COORDS)
    entries = []
    for d in spec.types:
        rank = _iterated_rank(d.rank, k)
        if rank > MAX_ITERATED_RANK:
            # no digits of the rank, which may be too long for str to write
            what = f"rank^(3^{k}) at type {d.id!r}"
            raise LimitError(what, rank, "MAX_ITERATED_RANK", MAX_ITERATED_RANK)
        entries.append(
            CriticalTypeData(d.id, d.inf_primes, rank, d.m, _iterated_coefficient(d, k))
        )
    new_spec = CRQGroupSpec.of(entries)
    if k > 1:
        return MultGroupDescriptor(new_spec, basis=None, generator=None, depth=k)
    basis = tuple((d.id, corner_table([d], lambda t: t.m * t.m)) for d in spec.clipped)
    # m times the new coefficient, an inverse of s modulo m, on each clipped corner
    generator = corner_table(spec.clipped, lambda d: d.m * new_spec.data_for(d.id).s)
    return MultGroupDescriptor(new_spec, basis=basis, generator=generator)


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
    if type(samples) is not int or samples < 1:
        raise ValueError(f"samples must be a positive int, got {samples!r}")
    if samples > MAX_COSET_SAMPLES:
        raise LimitError("the sample count", samples, "MAX_COSET_SAMPLES", MAX_COSET_SAMPLES)
    if type(gamma) is not int:
        raise ValueError(f"gamma must be an int, got {gamma!r}")
    AmbientElement.check(spec, b)
    coords = samples * sum(d.rank**3 for d in spec.types)
    if coords > MAX_SAMPLED_COORDS:
        what = "the sample count times the sum of rank^3"
        raise LimitError(what, coords, "MAX_SAMPLED_COORDS", MAX_SAMPLED_COORDS)
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
    shift = {tid: (nums[0], den) for tid, _, den, nums in b.parts}
    for d in spec.clipped:
        b0, den = shift.get(d.id, (0, 1))
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
        # every field after alpha is a flag
        return all(getattr(self, name) for name in self.__match_args__[1:])


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
    if not all(type(x) is int for x in (s1, s2, m)):
        raise ValueError(f"s1, s2 and m must be ints, got {s1!r}, {s2!r}, {m!r}")
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
        raise LimitError("m", m, "MAX_CROSS_BASIS_M", MAX_CROSS_BASIS_M)
    if max(s1, s2) + m > MAX_FACTORED:
        raise LimitError("max(s1, s2) + m", max(s1, s2) + m, "MAX_FACTORED", MAX_FACTORED)

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
    units = {"t1": (s1 + m, 1), "t2": (s2 + m, 1)}
    inverse_units = {"t1": (1, s1 + m), "t2": (1, s2 + m)}

    rng = random.Random(seed)
    zero = MultTable.zero()
    x_first, x_second = generator_x(spec_first), generator_x(spec_second)
    cases = []
    for alpha in range(1, m):
        noisy = (sample_m2_table(spec_first, rng), sample_m2_table(spec_second, rng))
        # one flag per CrossBasisCase field, each required of the exact and the noisy trial
        flags = [True] * 5
        for noise_first, noise_second in ((zero, zero), noisy):
            table_first = alpha * x_first + noise_first
            v_first = decide_membership(spec_first, table_first)
            table_as_second = rescale_slot0_coords(spec_first, table_first, units)
            v_cross = decide_membership(spec_second, table_as_second)

            table_second = alpha * x_second + noise_second
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
    reg_as_second = rescale_slot0_coords(spec_first, regulator_table, units)
    doubly_ok = in_M2(spec_first, regulator_table) and in_M2(spec_second, reg_as_second)

    return CrossBasisReport(
        s1=s1,
        s2=s2,
        m=m,
        inf_primes_1=tuple(sorted(inf1)),
        inf_primes_2=tuple(sorted(inf2)),
        cases=tuple(cases),
        doubly_scaled_member_both=doubly_ok,
    )
