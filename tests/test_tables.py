"""Multiplication tables, the layered filtration, and the membership decision."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crqmult.elements import AmbientElement, element_d, in_G
from crqmult.groups import CRQGroupSpec, CriticalTypeData, GenBounds, random_spec
from crqmult.numth import PrimeSet, is_prime
from crqmult.tables import (
    MultTable,
    build_product,
    closure_oracle,
    decide_membership,
    generator_x,
    in_M2,
    random_r_fraction,
    rescale_slot0_coords,
    sample_broken_corner_table,
    sample_m2_table,
    sample_member_table,
    sample_unscaled_border_table,
    single_entry_table,
    table_from_dict,
    table_to_dict,
)
from reference import basis_vector, border_scaling_check, fraction_matrix


def make_type(tid, primes, rank, m, s=1):
    return CriticalTypeData(tid, PrimeSet.of(primes), rank, m, s)


def two_block_spec():
    return CRQGroupSpec.of(
        [make_type("t1", [5], 2, 7, 2), make_type("t2", [2], 1, 7, 3)]
    )


def in_m1(spec, table):
    """The M1 layer: entries in the regulator, borders of clipped types m-scaled."""
    return table.outside_regulator(spec) is None and border_scaling_check(spec, table)


def corner_table(spec, blocks):
    """Table with the given (0, 0) vectors and zeros elsewhere."""
    data = {}
    for tid, vec in blocks.items():
        rank = spec.data_for(tid).rank
        mat = [[[Fraction(0)] * rank for _ in range(rank)] for _ in range(rank)]
        mat[0][0] = [Fraction(v) for v in vec]
        data[tid] = mat
    return MultTable.of(data)


def test_table_arithmetic():
    spec = two_block_spec()
    a = corner_table(spec, {"t1": [1, 2]})
    b = corner_table(spec, {"t1": [-1, 0], "t2": [3]})
    s = a + b
    assert fraction_matrix(s, "t1", 2)[0][0] == (Fraction(0), Fraction(2))
    assert (a - a).is_zero
    assert fraction_matrix(a * 3, "t1", 2)[0][0] == (Fraction(3), Fraction(6))
    assert b.support == ("t1", "t2")
    assert MultTable.zero().support == ()


def test_table_shape_validation():
    with pytest.raises(ValueError):
        MultTable.of({"t1": [[[1, 2]], [[3]]]})  # ragged cube
    cube_1 = MultTable.of({"t1": [[[1]]]})
    cube_2 = MultTable.of({"t1": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]})
    for combine in (MultTable.__add__, MultTable.__sub__):
        with pytest.raises(ValueError):
            combine(cube_1, cube_2)


def test_generator_x_form():
    spec = two_block_spec()
    x = generator_x(spec)
    # corner entry is m times the canonical inverse of s, on slot 0
    assert fraction_matrix(x, "t1", 2)[0][0] == (Fraction(28), Fraction(0))  # inv(2) mod 7 = 4
    assert fraction_matrix(x, "t2", 1)[0][0] == (Fraction(35),)  # inv(3) mod 7 wrt {2} = 5
    assert in_m1(spec, x)
    assert not in_M2(spec, x)


def test_generator_x_accepts_any_inverse_in_the_class():
    spec = two_block_spec()
    shifted = generator_x(spec, inverses={"t1": 11, "t2": 12})  # 4 + 7, 5 + 7
    assert decide_membership(spec, shifted).alpha == (1, 7)
    assert in_M2(spec, shifted - generator_x(spec))
    with pytest.raises(ValueError):
        generator_x(spec, inverses={"t1": 3, "t2": 5})  # 3 is not inverse to 2


def test_generator_x_is_linear_in_clipped_types():
    # 800 rank-1 types with m = 3, each distinguished by its own prime
    primes = [p for p in range(5, 7000) if is_prime(p)][:800]
    spec = CRQGroupSpec.of(
        make_type(f"t{i:03d}", [p], 1, 3, 1 + i % 2) for i, p in enumerate(primes)
    )
    assert len(spec.clipped) == 800 and spec.violations == ()
    started = time.perf_counter()
    x = generator_x(spec)
    assert time.perf_counter() - started < 0.5
    # s is its own inverse modulo 3; summed pairwise, so the reference is not quadratic
    tables = [single_entry_table(d.id, 1, (0, 0), 0, 3 * d.s) for d in spec.clipped]
    while len(tables) > 1:
        tables = [sum(tables[i : i + 2], MultTable.zero()) for i in range(0, len(tables), 2)]
    assert x == tables[0]


def test_filtration_layers():
    spec = two_block_spec()
    rng = random.Random(5)
    for _ in range(20):
        t2 = sample_m2_table(spec, rng)
        assert in_M2(spec, t2)
        assert in_m1(spec, t2)
    # scaled borders without the corner congruence stay on the middle layer
    border_only = corner_table(spec, {"t1": [0, 7]})
    assert in_m1(spec, border_only)
    assert not in_M2(spec, border_only)
    loose = corner_table(spec, {"t1": [1, 0]})
    assert not in_m1(spec, loose)


def test_zero_table_is_the_trivial_multiplication():
    spec = two_block_spec()
    verdict = decide_membership(spec, MultTable.zero())
    assert verdict.member and verdict.alpha == (0, 7)
    assert closure_oracle(spec, MultTable.zero())


def test_decide_failure_codes():
    spec = two_block_spec()

    bad_entry = corner_table(spec, {"t1": [Fraction(1, 3), 0]})
    v = decide_membership(spec, bad_entry)
    assert not v.member and v.failure.code == "ENTRY_OUTSIDE_A"

    data = {"t1": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}
    v = decide_membership(spec, MultTable.of(data))
    assert not v.member and v.failure.code == "BORDER_NOT_SCALED"
    assert v.failure.type_id == "t1" and v.failure.entry == (0, 1)

    off_slot = corner_table(spec, {"t1": [0, 7]})  # second corner slot unmatched
    v = decide_membership(spec, off_slot)
    assert not v.member and v.failure.code == "CORNER_RESIDUE"

    # witnesses 1 and 3 cannot agree modulo 7
    split = corner_table(spec, {"t1": [28, 0], "t2": [7]})
    v = decide_membership(spec, split)
    assert not v.member and v.failure.code == "ALPHA_INCONSISTENT"


def test_decide_member_reconstruction():
    spec = two_block_spec()
    rng = random.Random(8)
    x = generator_x(spec)
    for _ in range(25):
        table, alpha = sample_member_table(spec, rng)
        verdict = decide_membership(spec, table)
        assert verdict.member and verdict.alpha == (alpha % 7, 7)
        assert in_M2(spec, table - x * alpha)


def test_decide_is_additive_in_the_witness():
    spec = two_block_spec()
    rng = random.Random(13)
    for _ in range(15):
        t1, a1 = sample_member_table(spec, rng)
        t2, a2 = sample_member_table(spec, rng)
        v = decide_membership(spec, t1 + t2)
        assert v.member and v.alpha == ((a1 + a2) % 7, 7)
        v = decide_membership(spec, t1 * 3)
        assert v.member and v.alpha == ((3 * a1) % 7, 7)


def test_sampled_strata_verdicts():
    spec = two_block_spec()
    rng = random.Random(21)
    for _ in range(20):
        broken = sample_broken_corner_table(spec, rng)
        assert broken is not None
        assert not decide_membership(spec, broken).member
        unscaled = sample_unscaled_border_table(spec, rng)
        assert unscaled is not None
        v = decide_membership(spec, unscaled)
        assert not v.member and v.failure.code == "BORDER_NOT_SCALED"


def test_strata_need_clipped_types():
    solo = CRQGroupSpec.of([make_type("t1", [5], 2, 1)])
    rng = random.Random(2)
    assert sample_broken_corner_table(solo, rng) is None
    assert sample_unscaled_border_table(solo, rng) is None
    # with a trivial quotient every integral table is a multiplication
    verdict = decide_membership(solo, corner_table(solo, {"t1": [3, -2]}))
    assert verdict.member and verdict.alpha == (0, 1)


def test_decision_matches_closure_oracle():
    spec = two_block_spec()
    rng = random.Random(34)
    tables = []
    for _ in range(12):
        tables.append(sample_member_table(spec, rng)[0])
        tables.append(sample_m2_table(spec, rng))
        tables.append(sample_broken_corner_table(spec, rng))
        tables.append(sample_unscaled_border_table(spec, rng))
    for table in tables:
        assert decide_membership(spec, table).member == closure_oracle(spec, table)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 199), st.integers(0, 2**32), st.integers(-5, 5))
def test_decision_is_a_homomorphism(spec_seed, table_seed, c):
    # the witness alpha maps the member tables onto Z/n, with the doubly scaled tables as kernel
    spec = random_spec(spec_seed, GenBounds(3, 3, 36))
    rng = random.Random(table_seed)
    t1, _ = sample_member_table(spec, rng)
    t2, _ = sample_member_table(spec, rng)
    alpha1 = decide_membership(spec, t1).alpha[0]
    alpha2 = decide_membership(spec, t2).alpha[0]
    n = spec.n
    total = decide_membership(spec, t1 + t2)
    assert total.member and (total.alpha[0] - alpha1 - alpha2) % n == 0
    scaled = decide_membership(spec, c * t1)
    assert scaled.member and (scaled.alpha[0] - c * alpha1) % n == 0
    assert in_M2(spec, t1 - alpha1 * generator_x(spec))


def test_member_square_of_d_lands_in_witness_coset():
    spec = two_block_spec()
    rng = random.Random(55)
    d = element_d(spec)
    for _ in range(10):
        table, alpha = sample_member_table(spec, rng)
        product = build_product(spec, table)
        hit = in_G(spec, product(d, d))
        assert hit is not None and hit.k == alpha % 7


def test_build_product_is_bilinear():
    spec = two_block_spec()
    rng = random.Random(77)
    table, _ = sample_member_table(spec, rng)
    product = build_product(spec, table)
    g = AmbientElement.of({"t1": [Fraction(1, 5), 2], "t2": [3]})
    h = AmbientElement.of({"t1": [2, Fraction(-1, 5)], "t2": [Fraction(1, 2)]})
    k = basis_vector("t1", 2, 1)
    assert product(g + k, h) == product(g, h) + product(k, h)
    assert product(g, h + k) == product(g, h) + product(g, k)
    assert product(g * 3, h) == product(g, h) * 3
    # cross-type products vanish: support never mixes
    e1 = basis_vector("t1", 2, 0)
    e2 = basis_vector("t2", 1, 0)
    assert product(e1, e2).is_zero


def test_border_scaling_check():
    spec = two_block_spec()
    assert in_m1(spec, generator_x(spec))
    assert in_m1(spec, MultTable.zero())
    rng = random.Random(91)
    unscaled = sample_unscaled_border_table(spec, rng)
    assert not in_m1(spec, unscaled)
    # interior entries are unconstrained
    data = {"t1": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}
    assert in_m1(spec, MultTable.of(data))


def test_rescale_round_trip():
    spec = two_block_spec()
    rng = random.Random(3)
    table, _ = sample_member_table(spec, rng)
    units = {"t1": Fraction(5), "t2": Fraction(1, 2)}
    forward = rescale_slot0_coords(spec, table, units)
    back = rescale_slot0_coords(spec, forward, {tid: 1 / w for tid, w in units.items()})
    assert back == table
    with pytest.raises(ValueError):
        rescale_slot0_coords(spec, table, {"t1": Fraction(3)})  # 3 not a unit there


def test_oracle_work_follows_the_table_not_the_rank():
    # only products with d on stored clipped blocks can be nonzero
    rank = 200_000
    spec = CRQGroupSpec.of(
        [make_type("t1", [2], rank, 7), make_type("t2", [3], 1, 7), make_type("t3", [5], rank, 1)]
    )
    started = time.perf_counter()
    assert closure_oracle(spec, MultTable.zero())
    assert time.perf_counter() - started < 0.5


def test_random_r_fraction_denominators():
    rng = random.Random(44)
    for _ in range(200):
        _, den = random_r_fraction(rng, (2, 5))
        assert all(p in (2, 5) for p in prime_factors_of(den))


def prime_factors_of(n):
    out = []
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def test_table_json_round_trip():
    spec = two_block_spec()
    table = generator_x(spec)
    data = table_to_dict(table)
    assert table_from_dict(data) == table
    assert table_from_dict({"blocks": {}}) == MultTable.zero()
    mixed = table_from_dict(
        {"blocks": {"t2": [[[35]]], "t1": [[[7, "-14/5"], [0, 0]], [[0, 0], [0, "1"]]]}}
    )
    assert fraction_matrix(mixed, "t1", 2)[0][0] == (Fraction(7), Fraction(-14, 5))
    assert fraction_matrix(mixed, "t2", 1)[0][0] == (Fraction(35),)
    with pytest.raises(ValueError):
        table_from_dict({"blocks": {"t1": [[1]]}})
    with pytest.raises(ValueError):
        table_from_dict("nonsense")


def test_table_from_dict_rejects_strings_as_vectors():
    # each string would otherwise be read as a vector of its characters
    with pytest.raises(ValueError):
        table_from_dict({"blocks": {"t1": [["70", "00"], ["00", "00"]]}})


@pytest.mark.parametrize("coord", [7.0, False, None, {"n": 7}, "7.0", "1e3", "7/0"])
def test_table_from_dict_rejects_non_fraction_coordinates(coord):
    data = {"blocks": {"t2": [[[coord]]]}}
    with pytest.raises(ValueError):
        table_from_dict(data)


def test_spec_is_validated_once(monkeypatch):
    import crqmult.groups

    calls = []
    original = crqmult.groups.validate_spec

    def counting(spec):
        calls.append(spec)
        return original(spec)

    rng = random.Random(6)
    tables = [sample_member_table(two_block_spec(), rng)[0] for _ in range(10)]
    monkeypatch.setattr(crqmult.groups, "validate_spec", counting)
    spec = two_block_spec()
    for table in tables:
        assert decide_membership(spec, table).member
        assert closure_oracle(spec, table)
    assert len(calls) == 1
