"""Structure of the multiplication group, presentations, and the two-basis example."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from crqmult.elements import AmbientElement, in_G
from crqmult.groups import CRQGroupSpec, GenBounds, random_spec, validate_spec
from crqmult.multgroup import (
    MAX_COSET_SAMPLES,
    MAX_ITERATED_RANK,
    _iterated_rank,
    compute_mult_group,
    coset_relation,
    cross_basis_example,
    iterate_mult,
)
from crqmult.numth import LimitError, p0_inverse
from crqmult.tables import (
    MultTable,
    closure_oracle,
    decide_membership,
    generator_x,
    in_M2,
    sample_member_table,
)
from reference import (
    basis_vector,
    element_d,
    element_of,
    fraction_matrix,
    make_type,
    table_as_element,
    two_block_spec,
)
from test_acceptance import TABLES_PER_SPEC, sample_strata, spec_population


def test_structure_preserves_invariants_and_cubes_ranks():
    spec = two_block_spec()
    desc = compute_mult_group(spec)
    out = desc.spec
    assert validate_spec(out) == []
    assert out.type_ids == spec.type_ids
    assert out.t0_ids == spec.t0_ids
    assert out.n == spec.n
    by_id = {t.id: t for t in out.types}
    assert by_id["t1"].rank == 8 and by_id["t2"].rank == 1
    assert by_id["t1"].m == 7 and by_id["t2"].m == 7
    # coefficients invert within the allowed denominator class
    assert by_id["t1"].s == 4 and by_id["t2"].s == 5
    assert by_id["t1"].s == p0_inverse(2, 7, (5,))


def test_structure_regulator_blocks_and_decomposition():
    spec = two_block_spec()
    desc = compute_mult_group(spec)
    blocks = {b.type_id: b for b in desc.regulator}
    assert blocks["t1"].rank == 8 and blocks["t1"].corner_scale == 49
    assert blocks["t1"].border_scale == 7
    assert blocks["t2"].rank == 1 and blocks["t2"].corner_scale == 49
    assert desc.decomposition.clipped == ("t1", "t2")
    assert dict(desc.decomposition.complement) == {"t1": 7, "t2": 0}


def test_structure_generator_and_basis_tables():
    spec = two_block_spec()
    desc = compute_mult_group(spec)
    gen = desc.generator
    assert gen is not None
    verdict = decide_membership(spec, gen)
    assert verdict.member and verdict.alpha == (1, 7)
    assert closure_oracle(spec, gen)
    for tid, table in desc.basis:
        mat = fraction_matrix(table, tid, spec.data_for(tid).rank)
        corner = mat[0][0]
        assert corner[0] == 49 and all(c == 0 for c in corner[1:])
        assert in_M2(spec, table)
        # basis tables are the trivial members of the lattice
        v = decide_membership(spec, table)
        assert v.member and v.alpha == (0, 7)
    assert dict(desc.basis)["t1"] is not None


def test_structure_without_clipped_types():
    solo = CRQGroupSpec([make_type("t1", [5], 3, 1)])
    desc = compute_mult_group(solo)
    assert desc.spec.types[0].rank == 27
    assert desc.generator is not None and desc.generator.parts == ()
    assert desc.basis == ()
    # the m = 1 coefficient is normalised to 1 and stays 1 at every depth
    for k in (1, 2, 3):
        assert iterate_mult(solo, k).spec.types[0].s == 1


@pytest.mark.parametrize(
    "spec",
    [pytest.param(two_block_spec(), id="two-block")]
    + [pytest.param(random_spec(seed), id=f"random-{seed}") for seed in range(50)],
)
def test_iterate_depth_one_matches_direct_computation(spec):
    assert iterate_mult(spec, 1) == compute_mult_group(spec)


def test_iterate_rank_growth_and_coefficient_period():
    spec = two_block_spec()
    d2 = iterate_mult(spec, 2)
    d3 = iterate_mult(spec, 3)
    by_id = {t.id: t for t in d2.spec.types}
    assert by_id["t1"].rank == 2**9 and by_id["t2"].rank == 1
    # the coefficient sequence alternates between the class and its inverse
    assert [t.s for t in d2.spec.types] == [2, 3]
    assert [t.s for t in d3.spec.types] == [4, 5]
    assert d2.depth == 2 and d2.basis is None and d2.generator is None
    # at k = 4 the rank-2 type would grow to 2**81, past the bound; a rank-1 copy
    # of the spec shows the period there
    with pytest.raises(LimitError) as refused:
        iterate_mult(spec, 4)
    assert (refused.value.name, refused.value.value) == ("MAX_ITERATED_RANK", 2**81)
    assert str(refused.value) == (
        f"rank^(3^4) at type 't1' reaches {2**81}, past the bound MAX_ITERATED_RANK = {10**18}"
    )
    rank_one = CRQGroupSpec([make_type("t1", [5], 1, 7, 2), make_type("t2", [2], 1, 7, 3)])
    assert [t.s for t in iterate_mult(rank_one, 4).spec.types] == [2, 3]


def test_iterate_validates_depth_and_rank_budget():
    spec = two_block_spec()
    with pytest.raises(ValueError):
        iterate_mult(spec, 0)
    with pytest.raises(LimitError) as refused:
        iterate_mult(spec, 40)
    assert refused.value.name == "MAX_ITERATED_RANK"
    # rank one types never overflow, even at absurd depths
    solo = CRQGroupSpec(
        [make_type("t1", [5], 1, 7, 2), make_type("t2", [2], 1, 7, 3)]
    )
    desc = iterate_mult(solo, 10**6)
    assert all(t.rank == 1 for t in desc.spec.types)
    assert [t.s for t in desc.spec.types] == [2, 3]


def test_iterate_huge_depth_is_bounded():
    # the depth is never turned into 3**k: rank one stays put, and rank two
    # is refused at the first cube past the bound
    solo = CRQGroupSpec(
        [make_type("t1", [5], 1, 7, 2), make_type("t2", [2], 1, 7, 3)]
    )
    desc = iterate_mult(solo, 10**9)
    assert desc.depth == 10**9
    assert [(t.rank, t.s) for t in desc.spec.types] == [(1, 2), (1, 3)]
    odd = iterate_mult(solo, 10**9 + 1)
    assert [(t.rank, t.s) for t in odd.spec.types] == [(1, 4), (1, 5)]
    with pytest.raises(LimitError) as refused:
        iterate_mult(two_block_spec(), 10**9)
    assert (refused.value.name, refused.value.value) == ("MAX_ITERATED_RANK", 2**81)


def test_iterate_refuses_a_rank_too_long_to_write():
    # 10**5000 has more digits than str writes by default, so the refusal writes no digit of it
    spec = CRQGroupSpec([make_type("t1", [5], 10**5000, 1)])
    started = time.perf_counter()
    with pytest.raises(LimitError) as refused:
        iterate_mult(spec, 1)
    assert time.perf_counter() - started < 0.5
    assert refused.value.name == "MAX_ITERATED_RANK"
    assert refused.value.value == f"a {(10**15000).bit_length()}-bit integer"
    assert str(refused.value).startswith("rank^(3^1) at type 't1' reaches a ")
    assert "set_int_max_str_digits" not in str(refused.value)


@pytest.mark.parametrize(
    "k", [pytest.param(True, id="k-True"), pytest.param(2.0, id="k-2.0")]
)
def test_iterate_refuses_a_depth_that_is_not_an_int(k):
    # True and 2.0 compare equal to depths 1 and 2, but are refused before any cube is taken
    with pytest.raises(ValueError, match="iteration depth must be a positive int"):
        iterate_mult(two_block_spec(), k)


def test_iterated_rank_is_the_power_within_the_bound():
    for rank in range(1, 6):
        for k in range(1, 6):
            # rank one stays 1 at any depth; past the bound, the first power past it stands
            j = next((j for j in range(1, k) if rank ** 3**j > MAX_ITERATED_RANK), k)
            assert _iterated_rank(rank, k) == rank ** 3**j, (rank, k)


def test_depth_one_tables_are_bounded():
    # basis tables are dense rank^3 cubes: two clipped rank-25 types hold
    # 31250 coordinates and fit under 32**3, two rank-26 types hold 35152
    def pair(rank):
        return CRQGroupSpec(
            [make_type("t1", [5], rank, 7, 2), make_type("t2", [2], rank, 7, 3)]
        )

    assert len(compute_mult_group(pair(25)).basis) == 2
    for refused_call in (lambda: compute_mult_group(pair(26)), lambda: iterate_mult(pair(26), 1)):
        with pytest.raises(LimitError) as refused:
            refused_call()
        assert (refused.value.name, refused.value.value) == ("MAX_TABLE_COORDS", 35152)
    # deeper iterates build no tables, and unclipped types get none
    assert iterate_mult(pair(26), 2).basis is None
    unclipped = CRQGroupSpec([make_type("t1", [5], 40, 1), make_type("t2", [2], 40, 1)])
    assert compute_mult_group(unclipped).basis == ()


def test_coset_identity_presentation():
    spec = two_block_spec()
    report = coset_relation(spec, 1, AmbientElement(), samples=10, seed=0)
    assert report.applicable
    assert dict(report.s_prime) == {"t1": 2, "t2": 3}
    assert report.relation.witness.parts == ()
    assert report.witness_doubly_scaled and report.verdicts_agree


def test_coset_scaled_presentation():
    spec = two_block_spec()
    report = coset_relation(spec, 3, AmbientElement(), samples=20, seed=1)
    assert report.applicable
    assert dict(report.s_prime) == {"t1": 6, "t2": 9}
    assert report.relation.gamma_inverse == 5
    assert report.witness_doubly_scaled
    assert report.verdicts_agree and report.samples_checked == 20


def test_coset_shift_by_integer_vector():
    spec = two_block_spec()
    shift = element_of({"t1": [2, 0]})
    report = coset_relation(spec, 1, shift, samples=15, seed=4)
    assert report.applicable
    assert dict(report.s_prime) == {"t1": 16, "t2": 3}
    assert report.witness_doubly_scaled and report.verdicts_agree


def test_coset_inapplicable_presentations():
    spec = two_block_spec()
    # 3 + 7 = 10 picks up the infinite prime 2 on the second block
    shift = element_of({"t1": [1, 0], "t2": [1]})
    report = coset_relation(spec, 1, shift, samples=5, seed=0)
    assert not report.applicable
    assert "t2" in report.reason

    frac = element_of({"t1": [Fraction(1, 5), 0]})
    report = coset_relation(spec, 1, frac, samples=5, seed=0)
    assert not report.applicable
    assert "not an integer" in report.reason


def test_iterate_twice_is_mult_of_mult():
    # rank at most 2 keeps the second mult's cubes under MAX_TABLE_COORDS
    for seed in range(200):
        spec = random_spec(seed, GenBounds(3, 2, 36))
        twice = compute_mult_group(compute_mult_group(spec).spec).spec
        assert iterate_mult(spec, 2).spec == twice


def test_coset_rejects_malformed_input():
    spec = two_block_spec()
    with pytest.raises(ValueError):
        coset_relation(spec, 7, AmbientElement())  # shares a factor with n
    with pytest.raises(ValueError):
        coset_relation(spec, 1, element_of({"t1": [0, 1]}))  # off slot 0
    solo_unclipped = element_of({"t9": [1]})
    with pytest.raises(ValueError):
        coset_relation(spec, 1, solo_unclipped)
    # t3 has m = 1, so no multiple of d moves it
    with_unclipped = CRQGroupSpec([*spec.types, make_type("t3", [3], 1, 1)])
    with pytest.raises(ValueError, match="^shift element touches unclipped type 't3'$"):
        coset_relation(with_unclipped, 1, element_of({"t3": [1]}))
    # 1/2 is not integral at t1, whose only inverted prime is 5
    with pytest.raises(ValueError, match="outside the regulator at type 't1'"):
        coset_relation(spec, 1, element_of({"t1": [Fraction(1, 2), 0]}))
    inside = coset_relation(spec, 1, element_of({"t1": [Fraction(1, 5), 0]}))
    assert not inside.applicable
    # True and 2.5 are not sample counts, though True == 1 and 2.5 lies in range
    for samples in (-5, 0, True, 2.5):
        with pytest.raises(ValueError, match="samples must be") as refused:
            coset_relation(spec, 1, AmbientElement(), samples=samples)
        assert not isinstance(refused.value, LimitError)
    # only a count past the bound is a bound refusal
    with pytest.raises(LimitError) as refused:
        coset_relation(spec, 1, AmbientElement(), samples=MAX_COSET_SAMPLES + 1)
    assert (refused.value.name, refused.value.value) == ("MAX_COSET_SAMPLES", 1001)
    for gamma in (1.0, True):
        with pytest.raises(ValueError, match="gamma must be an int"):
            coset_relation(spec, gamma, AmbientElement())


def test_coset_checks_exactly_the_requested_samples():
    # random_spec(7) has four strata; whole batches would check 4, 8 and 24
    spec = random_spec(7)
    for samples in (1, 5, 21, MAX_COSET_SAMPLES):
        report = coset_relation(spec, 1, AmbientElement(), samples=samples, seed=3)
        assert report.samples_checked == samples
        assert report.witness_doubly_scaled and report.verdicts_agree


def test_coset_witness_relation_on_scaled_tables():
    # membership witnesses transform by the scale factor between presentations
    spec = two_block_spec()
    report = coset_relation(spec, 3, AmbientElement(), samples=1, seed=0)
    shifted = spec.with_coefficients(dict(report.s_prime))
    rng = random.Random(10)
    for _ in range(10):
        table, alpha = sample_member_table(spec, rng)
        v = decide_membership(shifted, table)
        assert v.member and v.alpha == ((3 * alpha) % 7, 7)


def test_cross_basis_small_case():
    report = cross_basis_example(2, 3, 7, seed=0)
    assert (report.s1, report.s2, report.m) == (2, 3, 7)
    assert report.inf_primes_1 == (3,)
    assert report.inf_primes_2 == (2, 5)
    assert len(report.cases) == 6
    assert [c.alpha for c in report.cases] == [1, 2, 3, 4, 5, 6]
    for case in report.cases:
        assert case.ok
        assert case.member_first and case.rejected_second
        assert case.member_second and case.rejected_first
        assert case.oracles_consistent
    assert report.doubly_scaled_member_both
    assert report.intersection_is_regulator


def test_cross_basis_other_parameterizations():
    report = cross_basis_example(3, 4, 11, seed=1)
    assert report.inf_primes_1 == (2, 7)
    assert report.inf_primes_2 == (3, 5)
    assert report.intersection_is_regulator

    report = cross_basis_example(2, 5, 13, seed=1)
    assert report.inf_primes_1 == (3, 5)
    assert report.inf_primes_2 == (2, 3)
    assert report.intersection_is_regulator


def test_cross_basis_nested_factor_sets_get_fresh_primes():
    # 3 + 7 and 13 + 7 share the factor set {2, 5}; distinguishing primes keep
    # the two types incomparable
    report = cross_basis_example(3, 13, 7, seed=2)
    assert report.inf_primes_1 == (2, 5, 11)
    assert report.inf_primes_2 == (2, 5, 17)
    assert report.intersection_is_regulator


def test_cross_basis_large_prime_scales_stay_fast():
    # prime scales near 10**9: m * s1 * s2 is never factored, so this takes
    # milliseconds rather than a trial division up to min(s1, s2)
    report = cross_basis_example(1000000007, 1000000009, 5)
    assert report.intersection_is_regulator

    # 1000000363 + 5 and 2 * 1000000363 + 5 + 5 share one factor set; the
    # fresh primes skip 5, which divides m
    report = cross_basis_example(1000000363, 2000000731, 5)
    assert report.inf_primes_1 == (2, 3, 7, 197, 35251)
    assert report.inf_primes_2 == (2, 3, 11, 197, 35251)
    assert report.intersection_is_regulator


def test_cross_basis_holds_on_every_admissible_small_triple():
    # the per-type basis change on every (s1, s2, m) that the hypotheses admit for these m
    admissible = 0
    for m in (5, 7, 11, 13):
        for s1, s2 in itertools.combinations(range(2, 13), 2):
            if math.gcd(s1, s2) != 1 or 0 in (s1 % m, s2 % m, (s1 * s1 - s2 * s2) % m):
                continue
            admissible += 1
            report = cross_basis_example(s1, s2, m)
            assert [c.alpha for c in report.cases] == list(range(1, m)), (s1, s2, m)
            assert [c for c in report.cases if not c.ok] == [], (s1, s2, m)
            assert report.intersection_is_regulator, (s1, s2, m)
    assert admissible == 75


def test_cross_basis_rejects_bad_hypotheses():
    with pytest.raises(ValueError):
        cross_basis_example(2, 3, 5)  # 5 divides 4 - 9
    with pytest.raises(ValueError):
        cross_basis_example(2, 4, 7)  # not coprime
    with pytest.raises(ValueError):
        cross_basis_example(1, 3, 7)  # first scale too small
    with pytest.raises(ValueError):
        cross_basis_example(2, 3, 6)  # modulus not prime
    with pytest.raises(ValueError):
        cross_basis_example(2, 3, 3)  # modulus divides a scale
    with pytest.raises(ValueError):
        cross_basis_example(2, 3, 1009)  # m - 1 witness values, each an O(m) scan
    with pytest.raises(ValueError):
        cross_basis_example(10**20 + 3, 3, 7)  # s1 + m too large to factor
    for args in ((2.0, 3, 7), (2, 3.0, 7), (2, 3, 7.0), (True, 3, 7), (2, 3, True)):
        with pytest.raises(ValueError, match="must be ints"):
            cross_basis_example(*args)


# -- Mult G through the engine: the structure theorem as a third route ----------
#
# compute_mult_group describes Mult G as a group of the same class.  A table T of
# G maps to an element of its ambient by `table_as_element`, and T defines a
# multiplication exactly when that element lies in Mult G, with k = alpha.


def test_member_tables_map_into_mult_g_on_the_acceptance_population():
    # the tables of acceptance criterion 1: specs 0..199, 20 stratified tables each
    rng = random.Random(10**6)
    members = others = 0
    for spec in spec_population():
        mult_spec = compute_mult_group(spec).spec
        for table, _, _ in sample_strata(spec, rng, TABLES_PER_SPEC):
            verdict = decide_membership(spec, table)
            hit = in_G(mult_spec, table_as_element(spec, table))
            assert verdict.member == (hit is not None)
            if hit is not None:
                assert hit.k == verdict.alpha[0]
            members += verdict.member
            others += not verdict.member
    assert members > 2000 and others > 1000


def test_basis_and_generator_map_to_basis_vectors_and_d():
    for spec in spec_population():
        desc = compute_mult_group(spec)
        for tid, table in desc.basis:
            rank = desc.spec.data_for(tid).rank
            assert table_as_element(spec, table) == basis_vector(tid, rank, 0)
        assert table_as_element(spec, desc.generator) == element_d(desc.spec)


# (infinite prime, rank, m, s) per clipped type; each spec has at most 1,296 cosets
TINY_SPECS = {
    "6-6": [(11, 1, 6, 5), (13, 1, 6, 1)],
    "4-4-2": [(5, 1, 4, 3), (7, 1, 4, 1), (11, 1, 2, 1)],
    "rank-2": [(3, 2, 2, 1), (5, 1, 2, 1)],
}


def coset_leaves(spec):
    """(type id, leaf, modulus) of every leaf that a coset representative of the
    integral tables modulo the doubly scaled ones can make nonzero: corner slots
    over Z/m^2, border slots over Z/m, and nothing inside."""
    out = []
    for d in spec.types:
        r = d.rank
        for leaf in range(r**3):
            i, j = divmod(leaf // r, r)
            if i == 0 or j == 0:
                out.append((d.id, leaf, d.m * d.m if (i, j) == (0, 0) else d.m))
    return out


@pytest.mark.parametrize("name", sorted(TINY_SPECS))
def test_every_coset_of_a_tiny_spec(name):
    spec = CRQGroupSpec(
        make_type(f"t{i + 1}", [p], r, m, s) for i, (p, r, m, s) in enumerate(TINY_SPECS[name])
    )
    assert not spec.violations
    mult_spec = compute_mult_group(spec).spec
    leaves = coset_leaves(spec)
    alphas = []
    for values in itertools.product(*(range(q) for _, _, q in leaves)):
        cubes = {d.id: [0] * d.rank**3 for d in spec.types}
        for (tid, leaf, _), value in zip(leaves, values):
            cubes[tid][leaf] = value
        table = MultTable((d.id, d.rank, 1, cubes[d.id]) for d in spec.types)
        verdict = decide_membership(spec, table)
        hit = in_G(mult_spec, table_as_element(spec, table))
        assert closure_oracle(spec, table) == verdict.member == (hit is not None)
        if verdict.member:
            assert hit.k == verdict.alpha[0]
            alphas.append(hit.k)
    # one member coset per alpha: the cyclic regulator quotient of Mult G, of order n
    assert sorted(alphas) == list(range(spec.n))
