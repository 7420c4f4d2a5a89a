"""Acceptance suite: every guarantee checked end to end at exact arithmetic.

Each test covers one advertised guarantee and prints a single verdict line.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they pass.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from crqmult.elements import AmbientElement, purity_oracle
from crqmult.groups import (
    CRQGroupSpec,
    CriticalTypeData,
    GenBounds,
    random_spec,
    validate_spec,
)
from crqmult.multgroup import compute_mult_group, coset_relation, cross_basis_example
from crqmult.numth import (
    PrimeSet,
    crt_solve,
    p0_inverse,
    prime_factors,
)
from crqmult.tables import (
    closure_oracle,
    decide_membership,
    generator_x,
    in_M2,
    sample_broken_corner_table,
    sample_m2_table,
    sample_member_table,
    sample_unscaled_border_table,
)
from reference import (
    border_scaling_check,
    element_of,
    euler_phi,
    fraction_matrix,
    in_scaled_A_tau,
    is_p_integer,
    lcm_all,
    order_mod_A,
    project,
)

SPEC_COUNT = 200
TABLES_PER_SPEC = 20
GEN_BOUNDS = GenBounds(max_types=3, max_rank=3, max_m=36)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def spec_population():
    return [random_spec(seed, GEN_BOUNDS) for seed in range(SPEC_COUNT)]


def sample_strata(spec, rng, total):
    """Tables with known expected verdicts, cycling through all four strata.

    Strata that need a nontrivial quotient fall back to members so the count
    never drops below the requested total.
    """
    out = []
    while len(out) < total:
        table, alpha = sample_member_table(spec, rng)
        out.append((table, True, alpha))
        if len(out) >= total:
            break
        out.append((sample_m2_table(spec, rng), True, 0))
        if len(out) >= total:
            break
        broken = sample_broken_corner_table(spec, rng)
        if broken is not None:
            out.append((broken, False, None))
        else:
            table, alpha = sample_member_table(spec, rng)
            out.append((table, True, alpha))
        if len(out) >= total:
            break
        unscaled = sample_unscaled_border_table(spec, rng)
        if unscaled is not None:
            out.append((unscaled, False, None))
        else:
            out.append((sample_m2_table(spec, rng), True, 0))
    return out


def test_criterion_1_decision_matches_closure():
    with criterion(1, "membership decision agrees with direct closure"):
        rng = random.Random(10**6)
        for spec in spec_population():
            x = generator_x(spec)
            n = spec.n
            for table, expect_member, alpha in sample_strata(
                spec, rng, TABLES_PER_SPEC
            ):
                verdict = decide_membership(spec, table)
                assert verdict.member == expect_member
                assert closure_oracle(spec, table) == expect_member
                if expect_member:
                    assert verdict.alpha == (alpha % n, n)
                    # members decompose as witness multiple of the generator
                    # plus a doubly scaled tail
                    assert in_M2(spec, table - x * verdict.alpha[0])
                else:
                    assert verdict.failure is not None


def test_criterion_2_multiplication_group_structure():
    with criterion(2, "multiplication group structure"):
        for spec in spec_population():
            desc = compute_mult_group(spec)
            out = desc.spec
            assert validate_spec(out) == []
            assert out.type_ids == spec.type_ids
            assert out.t0_ids == spec.t0_ids
            assert out.n == spec.n
            for before in spec.types:
                after = out.data_for(before.id)
                assert after.inf_primes == before.inf_primes
                assert after.m == before.m
                assert after.rank == before.rank**3
                if before.m > 1:
                    assert (before.s * after.s) % before.m == 1
                    assert after.s > 0
                    assert not any(after.s % p == 0 for p in before.inf_primes)
            # one cyclic slot per clipped type, the rest is the complement
            complement = dict(desc.decomposition.complement)
            for before in spec.types:
                expected = before.rank**3 - (1 if before.m > 1 else 0)
                assert complement[before.id] == expected
            blocks = {b.type_id: b for b in desc.regulator}
            for before in spec.types:
                assert blocks[before.id].rank == before.rank**3
                assert blocks[before.id].corner_scale == before.m**2
                assert blocks[before.id].border_scale == before.m
            gen = desc.generator
            verdict = decide_membership(spec, gen)
            assert verdict.member and verdict.alpha == (1 % spec.n, spec.n)
            assert closure_oracle(spec, gen)
            for tid, table in desc.basis:
                corner = fraction_matrix(table, tid, spec.data_for(tid).rank)[0][0]
                m = spec.data_for(tid).m
                assert corner[0] == m * m
                assert all(c == 0 for c in corner[1:])


def _condition_m_literal(values):
    for i, m in enumerate(values):
        for p, k in prime_factors(m).items():
            others = [v for j, v in enumerate(values) if j != i]
            if not any(o % p**k == 0 for o in others):
                return False
    return True


def _purity_spec(values):
    anchors = (29, 31, 37, 41)
    types = [
        CriticalTypeData(f"t{i + 1}", PrimeSet([anchors[i]]), 1, m)
        for i, m in enumerate(values)
    ]
    return CRQGroupSpec(types)


def test_criterion_3_shared_prime_power_equivalences():
    with criterion(3, "shared prime power condition equivalences"):
        from crqmult.numth import condition_m_check

        def check(values):
            mapping = {str(i): m for i, m in enumerate(values)}
            expected = _condition_m_literal(values)
            assert condition_m_check(mapping) == expected
            spec = _purity_spec(values)
            all_pure = all(purity_oracle(spec, t.id) for t in spec.types)
            assert all_pure == expected

        stack = [()]
        for _ in range(4):
            next_stack = []
            for prefix in stack:
                for m in range(1, 25):
                    values = prefix + (m,)
                    check(values)
                    next_stack.append(values)
            stack = next_stack

        rng = random.Random(3000)
        for _ in range(1000):
            values = tuple(
                rng.randrange(1, 200) for _ in range(rng.randrange(1, 5))
            )
            check(values)


def test_criterion_4_two_basis_intersection():
    with criterion(4, "two-basis intersection"):
        for s1, s2, m in ((2, 3, 7), (3, 4, 11), (2, 5, 13)):
            report = cross_basis_example(s1, s2, m, seed=s1 + s2 + m)
            assert [c.alpha for c in report.cases] == list(range(1, m))
            for case in report.cases:
                assert case.member_first and case.member_second
                assert case.rejected_second and case.rejected_first
                assert case.oracles_consistent
            assert report.doubly_scaled_member_both
            assert report.intersection_is_regulator


def test_criterion_5_presentation_invariance():
    with criterion(5, "presentation invariance"):
        rng = random.Random(500)
        applicable = 0
        seed = 0
        while applicable < 100:
            spec = random_spec(seed % SPEC_COUNT, GEN_BOUNDS)
            seed += 1
            n = spec.n
            units = [g for g in range(1, n + 1) if _gcd(g, n) == 1]
            gamma = rng.choice(units)
            shift = {}
            for tid in spec.t0_ids:
                if rng.random() < 0.5:
                    shift[tid] = [rng.randrange(-3, 4)] + [0] * (
                        spec.data_for(tid).rank - 1
                    )
            b = element_of(shift)
            report = coset_relation(spec, gamma, b, samples=20, seed=seed)
            if not report.applicable:
                continue
            applicable += 1
            assert report.witness_doubly_scaled
            assert report.verdicts_agree
            assert report.samples_checked == 20


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_criterion_6_border_scaling_necessity():
    with criterion(6, "border scaling necessity"):
        rng = random.Random(60)
        for seed in range(60):
            spec = random_spec(seed, GEN_BOUNDS)
            for table, _, _ in sample_strata(spec, rng, 8):
                if closure_oracle(spec, table):
                    assert border_scaling_check(spec, table)
                if decide_membership(spec, table).member:
                    assert border_scaling_check(spec, table)


def test_criterion_7_arithmetic_backbone():
    with criterion(7, "arithmetic backbone"):
        rng = random.Random(70)
        # congruence solving against a full scan of the combined modulus
        for _ in range(300):
            congruences = []
            modulus = 1
            for _ in range(rng.randrange(1, 4)):
                m = rng.randrange(1, 22)
                if modulus * m // _gcd(modulus, m) > 10**4:
                    break
                congruences.append((rng.randrange(0, m), m))
                modulus = lcm_all([c[1] for c in congruences])
            matches = [
                k
                for k in range(modulus)
                if all((k - r) % m == 0 for r, m in congruences)
            ]
            result = crt_solve(congruences)
            if matches:
                assert result == (matches[0], modulus)
            else:
                assert result is None

        # canonical inverses against the totient exponent route
        pools = ((), (2,), (2, 3), (5,), (2, 3, 5), (7, 11))
        for m in range(2, 31):
            for s in range(1, m):
                if _gcd(s, m) != 1:
                    continue
                classic = pow(s, euler_phi(m) - 1, m)
                for pool in pools:
                    if any(m % p == 0 for p in pool):
                        continue
                    t = p0_inverse(s, m, pool)
                    assert t % m == classic
                    assert t > 0
                    assert t == 1 or not any(
                        p in pool for p in prime_factors(t)
                    )

        # element order against brute force iteration
        spec = random_spec(77, GEN_BOUNDS)
        for _ in range(60):
            blocks = {}
            for t in spec.types:
                coords = []
                for _ in range(t.rank):
                    num = rng.randrange(-4, 5)
                    den = rng.choice([1, 2, 3, 5, 6, t.m, 2 * t.m])
                    coords.append(Fraction(num, den))
                blocks[t.id] = coords
            g = element_of(blocks)
            order = order_mod_A(spec, g)
            if order > 10**3:
                continue
            accum = AmbientElement()
            for k in range(1, order + 1):
                accum = accum + g
                inside = all(
                    in_scaled_A_tau(spec, project(spec, accum, t.id), t.id, 1)
                    for t in spec.types
                )
                assert inside == (k == order)
