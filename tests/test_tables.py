"""Multiplication tables, the layered filtration, and the membership decision."""

import itertools
import random
import re
import time
import timeit
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crqmult.elements import MAX_SCAN_WORK, AmbientElement, in_G, purity_oracle
from crqmult.groups import CRQGroupSpec, GenBounds, random_spec, validate_spec
from crqmult.multgroup import compute_mult_group, coset_relation
from crqmult.numth import LimitError, is_prime
from crqmult.tables import (
    MultTable,
    build_product,
    closure_oracle,
    decide_membership,
    generator_x,
    in_M2,
    random_r_fraction,
    sample_broken_corner_table,
    sample_m2_table,
    sample_member_table,
    sample_unscaled_border_table,
    single_entry_table,
    table_from_dict,
    table_to_dict,
)
from reference import (
    basis_vector,
    border_scaling_check,
    element_d,
    element_of,
    fraction_matrix,
    make_type,
    ref_decide,
    support,
    table_of,
    two_block_spec,
)
from test_acceptance import GEN_BOUNDS, SPEC_COUNT, sample_strata


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
    return table_of(data)


def test_table_arithmetic():
    spec = two_block_spec()
    a = corner_table(spec, {"t1": [1, 2]})
    b = corner_table(spec, {"t1": [-1, 0], "t2": [3]})
    s = a + b
    assert fraction_matrix(s, "t1", 2)[0][0] == (Fraction(0), Fraction(2))
    assert (a - a).parts == ()
    assert fraction_matrix(a * 3, "t1", 2)[0][0] == (Fraction(3), Fraction(6))
    assert support(b) == ("t1", "t2")
    assert support(MultTable()) == ()


def test_table_shape_validation():
    with pytest.raises(ValueError):
        table_of({"t1": [[[1, 2]], [[3]]]})  # ragged cube
    cube_1 = table_of({"t1": [[[1]]]})
    cube_2 = table_of({"t1": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]})
    for combine in (MultTable.__add__, MultTable.__sub__):
        with pytest.raises(ValueError):
            combine(cube_1, cube_2)


# a vector where a cube belongs and a cube where a vector belongs (m = 11), and blocks
# of the rank-1 type t2 that are 2 wide
VECTOR = AmbientElement([("t1", 2, 1, [11, 0])])
WIDE_CUBE = MultTable([("t2", 2, 1, [3] + [0] * 7)])
WIDE_VECTOR = AmbientElement([("t2", 2, 1, [3, 0])])
# entries whose numerators do not fill a block of the type's rank 2: refused when built
SHORT_CUBE = [("t1", 2, 1, [11, 0, 0])]
LONG_VECTOR = [("t1", 2, 1, [1, 2, 3])]
# a cube of the rank-1 type holds 1 ** 3 numerators, as many as a vector
RANK1_CUBE = MultTable([("t2", 1, 1, [3])])
RNG = random.Random(0)
WRONG_SHAPE_CALLS = {
    "decide-vector": lambda spec: decide_membership(spec, VECTOR),
    "oracle-vector": lambda spec: closure_oracle(spec, VECTOR),
    "product-vector": lambda spec: build_product(spec, VECTOR),
    "decide-short-cube": lambda spec: decide_membership(spec, MultTable(SHORT_CUBE)),
    "oracle-short-cube": lambda spec: closure_oracle(spec, MultTable(SHORT_CUBE)),
    "decide-wide-cube": lambda spec: decide_membership(spec, WIDE_CUBE),
    "oracle-wide-cube": lambda spec: closure_oracle(spec, WIDE_CUBE),
    "in-G-table": lambda spec: in_G(spec, generator_x(spec)),
    "in-G-long-vector": lambda spec: in_G(spec, AmbientElement(LONG_VECTOR)),
    "in-G-wide-vector": lambda spec: in_G(spec, WIDE_VECTOR),
    "coset-shift-table": lambda spec: coset_relation(spec, 2, RANK1_CUBE),
    "coset-shift-wide-vector": lambda spec: coset_relation(spec, 2, WIDE_VECTOR),
    "product-table-left": lambda spec: build_product(spec, generator_x(spec))(
        RANK1_CUBE, element_d(spec)
    ),
    "product-table-right": lambda spec: build_product(spec, generator_x(spec))(
        element_d(spec), RANK1_CUBE
    ),
}
# anything but a spec, in place of the spec
for name, not_a_spec in (("none", None), ("dict", {})):
    WRONG_SHAPE_CALLS |= {
        f"decide-{name}-spec": lambda spec, x=not_a_spec: decide_membership(x, generator_x(spec)),
        f"oracle-{name}-spec": lambda spec, x=not_a_spec: closure_oracle(x, generator_x(spec)),
        f"in-G-{name}-spec": lambda spec, x=not_a_spec: in_G(x, element_d(spec)),
        f"mult-{name}-spec": lambda spec, x=not_a_spec: compute_mult_group(x),
        f"validate-{name}-spec": lambda spec, x=not_a_spec: validate_spec(x),
        f"purity-{name}-spec": lambda spec, x=not_a_spec: purity_oracle(x, "t1"),
        f"member-{name}-spec": lambda spec, x=not_a_spec: sample_member_table(x, RNG),
        f"broken-corner-{name}-spec": lambda spec, x=not_a_spec: sample_broken_corner_table(x, RNG),
        f"unscaled-border-{name}-spec": lambda spec, x=not_a_spec: sample_unscaled_border_table(
            x, RNG
        ),
    }


def out_of_form(cls):
    """Entries of cls that fit the ranks of t1 and t2 but break the canonical form at
    block 't1', each with the parts they build, or None when building them is refused."""

    def block(tid, size, den, first):
        return (tid, size, den, (first,) + (0,) * (size**cls.depth - 1))

    t1, t2 = block("t1", 2, 1, 11), block("t2", 1, 1, 3)
    return {
        "unsorted": ((t2, t1), (t1, t2)),
        "repeated": ((t1, t1), None),
        "zero-denominator": ((block("t1", 2, 0, 11),), None),
        "negative-denominator": ((block("t1", 2, -1, 11),), (block("t1", 2, 1, -11),)),
        "zero-block": ((block("t1", 2, 1, 0), t2), (t2,)),
        "unreduced": ((block("t1", 2, 2, 22), t2), (t1, t2)),
    }


TABLE_ROUTES = {
    "decide": decide_membership,
    "oracle": closure_oracle,
    "product": build_product,
}
ELEMENT_ROUTES = {
    "in-G": in_G,
    "coset-shift": lambda spec, g: coset_relation(spec, 2, g),
    "product-left": lambda spec, g: build_product(spec, generator_x(spec))(g, element_d(spec)),
    "product-right": lambda spec, g: build_product(spec, generator_x(spec))(element_d(spec), g),
}
OUT_OF_FORM_CALLS = {
    f"{route}-{form}-{kind}": (cls, entries, parts, call)
    for cls, kind, routes in (
        (MultTable, "table", TABLE_ROUTES),
        (AmbientElement, "element", ELEMENT_ROUTES),
    )
    for form, (entries, parts) in out_of_form(cls).items()
    for route, call in routes.items()
}


@pytest.mark.parametrize("name", [*WRONG_SHAPE_CALLS, *OUT_OF_FORM_CALLS])
def test_a_container_of_the_wrong_kind_or_length_is_refused(name):
    spec = CRQGroupSpec([make_type("t1", [5], 2, 11, 2), make_type("t2", [2], 1, 11, 3)])
    assert not spec.violations
    if name in OUT_OF_FORM_CALLS:
        # no container is out of form: the constructor refuses a repeated id and denominator 0,
        # naming the block, and puts the other forms in canonical form, which each route takes
        cls, entries, parts, call = OUT_OF_FORM_CALLS[name]
        if parts is None:
            with pytest.raises(ValueError, match=r"^block 't1' "):
                cls(entries)
        else:
            built = cls(entries)
            assert built.parts == parts
            call(spec, built)
        return
    # anything but a spec is named in the refusal, and so is a block of the wrong length or size
    named = r"^expected a CRQGroupSpec, got (NoneType|dict)$" if name.endswith("-spec") else None
    if name.endswith(("short-cube", "long-vector")):
        named = r"^block 't1' holds 3 coordinates, expected 2\^"
    if "wide" in name:
        named = r"^block 't2' has size 2, expected 1$"
    with pytest.raises(ValueError, match=named):
        WRONG_SHAPE_CALLS[name](spec)


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
    # m times the inverses 11 = 4 + 7 of 2 and 12 = 5 + 7 of 3 on the corners
    shifted = single_entry_table("t1", 2, (0, 0), 0, 7 * 11) + single_entry_table(
        "t2", 1, (0, 0), 0, 7 * 12
    )
    assert decide_membership(spec, shifted).alpha == (1, 7)
    assert in_M2(spec, shifted - generator_x(spec))


def test_generator_x_is_linear_in_clipped_types():
    # 800 rank-1 types with m = 3, each distinguished by its own prime
    primes = [p for p in range(5, 7000) if is_prime(p)][:800]
    spec = CRQGroupSpec(
        make_type(f"t{i:03d}", [p], 1, 3, 1 + i % 2) for i, p in enumerate(primes)
    )
    assert len(spec.clipped) == 800 and spec.violations == ()
    started = time.perf_counter()
    x = generator_x(spec)
    assert time.perf_counter() - started < 0.5
    # s is its own inverse modulo 3; summed pairwise, so the reference is not quadratic
    tables = [single_entry_table(d.id, 1, (0, 0), 0, 3 * d.s) for d in spec.clipped]
    while len(tables) > 1:
        tables = [sum(tables[i : i + 2], MultTable()) for i in range(0, len(tables), 2)]
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
    verdict = decide_membership(spec, MultTable())
    assert verdict.member and verdict.alpha == (0, 7)
    assert closure_oracle(spec, MultTable())


def test_decide_failure_codes():
    spec = two_block_spec()

    bad_entry = corner_table(spec, {"t1": [Fraction(1, 3), 0]})
    v = decide_membership(spec, bad_entry)
    assert not v.member and v.failure.code == "ENTRY_OUTSIDE_A"

    data = {"t1": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}
    v = decide_membership(spec, table_of(data))
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


def test_every_unscaled_border_entry_is_named():
    # one unscaled coordinate on an m-scaled border is the first failure of the walk, at its
    # own entry: (0, j) and (j, 0) are the same entry (0, 0) at j = 0
    spec = CRQGroupSpec(
        [make_type("t1", [5], 1, 7, 2), make_type("t2", [2], 2, 7, 3), make_type("t3", [3], 3, 7)]
    )
    assert not spec.violations and [d.rank for d in spec.clipped] == [1, 2, 3]
    rng = random.Random(8)
    for d in spec.clipped:
        for j, slot in itertools.product(range(d.rank), repeat=2):
            for entry in {(0, j), (j, 0)}:
                unscaled = single_entry_table(d.id, d.rank, entry, slot, 1)
                table = sample_m2_table(spec, rng) + unscaled
                failure = decide_membership(spec, table).failure
                named = ("BORDER_NOT_SCALED", d.id, entry)
                assert (failure.code, failure.type_id, failure.entry) == named
                cubes = {tid: [Fraction(x, den) for x in nums] for tid, _, den, nums in table.parts}
                assert ref_decide(spec, cubes)[2:5] == named
                assert closure_oracle(spec, table) is False


def test_strata_need_clipped_types():
    solo = CRQGroupSpec([make_type("t1", [5], 2, 1)])
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


# the least primes m past the in_G scan bound for two types sharing m: from m =
# MAX_SCAN_WORK // 2 on, 2m residues plus the witness's two or more coordinates pass it
LARGE_PRIMES = list(itertools.islice(filter(is_prime, itertools.count(MAX_SCAN_WORK // 2)), 3))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.sampled_from(LARGE_PRIMES),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from([1, 3, 5, 7]),
    st.integers(0, 2**32),
)
def test_unscaled_borders_get_verdicts_past_the_scan_limit(m, rank1, rank2, s, table_seed):
    # shaped like the CLI's large-index spec: two types sharing one prime m past the bound
    spec = CRQGroupSpec([make_type("t1", [2], rank1, m, s), make_type("t2", [3], rank2, m)])
    assert 2 * spec.n + rank1 + rank2 > MAX_SCAN_WORK
    rng = random.Random(table_seed)
    unscaled = sample_unscaled_border_table(spec, rng)
    assert closure_oracle(spec, unscaled) is False
    assert decide_membership(spec, unscaled).failure.code == "BORDER_NOT_SCALED"
    # a member of witness 0 has m-scaled borders and d*d in the regulator: no scan
    member = sample_m2_table(spec, rng) + single_entry_table("t1", rank1, (0, 0), 0, m * m)
    verdict = decide_membership(spec, member)
    assert verdict.member and verdict.alpha == (0, spec.n)
    assert closure_oracle(spec, member) is True
    # past witness 0, d*d is k*d plus the regulator with k != 0, so only a scan finds it
    member, alpha = sample_member_table(spec, rng)
    verdict = decide_membership(spec, member)
    assert verdict.member and verdict.alpha == (alpha, spec.n) and alpha != 0
    with pytest.raises(LimitError) as refused:
        closure_oracle(spec, member)
    assert refused.value.name == "MAX_SCAN_WORK"


def test_decision_and_oracle_time_is_linear_in_the_type_count():
    # each route reads the table's blocks once, not once per type: 4x the types take about
    # 4x the time, where a scan of the blocks per type took 9 to 10x.  The sizes take turns,
    # so a busy spell on a shared machine slows both, and 6x leaves a margin for the rest.
    primes = list(itertools.islice(filter(is_prime, itertools.count(3)), 1000))
    cases = {}
    for count in (250, 1000):
        types = [make_type(f"t{i:04d}", [p], 1, 2) for i, p in enumerate(primes[:count])]
        spec = CRQGroupSpec(types)
        # 4 = m^2 on every clipped corner: a member of witness 0, so no route stops early
        table = MultTable((d.id, 1, 1, [4]) for d in types)
        assert decide_membership(spec, table).member and closure_oracle(spec, table)
        cases[count] = spec, table
    routes = (decide_membership, closure_oracle)
    runs = {(route, count): [] for route in routes for count in cases}
    for _ in range(5):
        for (route, count), times in runs.items():
            spec, table = cases[count]
            times.append(timeit.timeit(lambda: route(spec, table), number=1))
    for route in routes:
        few, many = min(runs[route, 250]), min(runs[route, 1000])
        assert many < 6 * few, (route.__name__, few, many)


# specs with the ids and ranks of two_block_spec but another s, m or set of infinite
# primes: a table of two_block_spec is checked against one of them as a second spec
OTHER_SPECS = {
    "s": [make_type("t1", [5], 2, 7, 3), make_type("t2", [2], 1, 7, 3)],
    "m": [make_type("t1", [5], 2, 3, 2), make_type("t2", [2], 1, 3, 1)],
    "primes": [make_type("t1", [3], 2, 7, 2), make_type("t2", [2], 1, 7, 3)],
}


@pytest.mark.parametrize("other", sorted(OTHER_SPECS))
def test_one_table_checked_against_two_specs(other):
    first, second = two_block_spec(), CRQGroupSpec(OTHER_SPECS[other])
    rng = random.Random(55)
    tables = [sample_member_table(first, rng)[0] for _ in range(4)]
    tables += [sample_unscaled_border_table(first, rng) for _ in range(2)]
    # 1/5 is in the regulator of t1 over the prime 5, not over the prime 3
    tables.append(table_of({"t1": [[[0, 0], [0, 0]], [[0, 0], [0, Fraction(1, 5)]]]}))
    routes = (decide_membership, closure_oracle)
    calls = [(route, spec) for route in routes for spec in (first, second)]
    differ = False
    for table in tables:
        before = (repr(table), hash(table))
        # each call on a fresh table, so no check was kept before it
        expected = {(route, spec): route(spec, MultTable(table.parts)) for route, spec in calls}
        differ |= expected[decide_membership, first] != expected[decide_membership, second]
        for order in itertools.permutations(calls):
            checked = MultTable(table.parts)
            for route, spec in order:
                assert route(spec, checked) == expected[route, spec]
            # the kept check is not a field
            assert (repr(checked), hash(checked)) == before
            assert checked == table and table == checked
    assert differ


def test_a_kept_check_does_not_pass_an_invalid_spec():
    # the ids and ranks of two_block_spec, with s = 7 not a unit modulo m = 7
    invalid = CRQGroupSpec([make_type("t1", [5], 2, 7, 7), make_type("t2", [2], 1, 7, 3)])
    spec = two_block_spec()
    table, _ = sample_member_table(spec, random.Random(3))
    assert decide_membership(spec, table).member and closure_oracle(spec, table)
    for route in (decide_membership, closure_oracle):
        with pytest.raises(ValueError, match="invalid spec: S_M_NOT_COPRIME"):
            route(invalid, table)


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


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, SPEC_COUNT - 1), st.integers(0, 2**32))
def test_unreduced_copies_get_the_tables_verdicts(spec_seed, table_seed):
    # one table of each stratum of acceptance criterion 1
    spec = random_spec(spec_seed, GEN_BOUNDS)
    for table, member, alpha in sample_strata(spec, random.Random(table_seed), 4):
        verdict = decide_membership(spec, table)
        assert verdict.member == member == closure_oracle(spec, table)
        if member:
            assert verdict.alpha == (alpha % spec.n, spec.n)
        # the same values, with every numerator and denominator times a factor
        for factor in (2, 3, 5, 7):
            copy = MultTable(
                (tid, size, den * factor, [factor * x for x in nums])
                for tid, size, den, nums in table.parts
            )
            assert copy == table
            assert decide_membership(spec, copy) == verdict
            assert closure_oracle(spec, copy) == member


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
    g = element_of({"t1": [Fraction(1, 5), 2], "t2": [3]})
    h = element_of({"t1": [2, Fraction(-1, 5)], "t2": [Fraction(1, 2)]})
    k = basis_vector("t1", 2, 1)
    assert product(g + k, h) == product(g, h) + product(k, h)
    assert product(g, h + k) == product(g, h) + product(g, k)
    assert product(g * 3, h) == product(g, h) * 3
    # cross-type products vanish: support never mixes
    e1 = basis_vector("t1", 2, 0)
    e2 = basis_vector("t2", 1, 0)
    assert product(e1, e2).parts == ()


def test_border_scaling_check():
    spec = two_block_spec()
    assert in_m1(spec, generator_x(spec))
    assert in_m1(spec, MultTable())
    rng = random.Random(91)
    unscaled = sample_unscaled_border_table(spec, rng)
    assert not in_m1(spec, unscaled)
    # interior entries are unconstrained
    data = {"t1": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}
    assert in_m1(spec, table_of(data))


def test_oracle_work_follows_the_table_not_the_rank():
    # only products with d on stored clipped blocks can be nonzero
    rank = 200_000
    spec = CRQGroupSpec(
        [make_type("t1", [2], rank, 7), make_type("t2", [3], 1, 7), make_type("t3", [5], rank, 1)]
    )
    started = time.perf_counter()
    assert closure_oracle(spec, MultTable())
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
    assert table_from_dict({"blocks": {}}) == MultTable()
    mixed = table_from_dict(
        {"blocks": {"t2": [[[35]]], "t1": [[[7, "-14/5"], [0, 0]], [[0, 0], [0, "1"]]]}}
    )
    assert fraction_matrix(mixed, "t1", 2)[0][0] == (Fraction(7), Fraction(-14, 5))
    assert fraction_matrix(mixed, "t2", 1)[0][0] == (Fraction(35),)
    with pytest.raises(ValueError):
        table_from_dict({"blocks": {"t1": [[1]]}})
    with pytest.raises(ValueError):
        table_from_dict("nonsense")


def test_table_from_dict_refuses_keys_that_are_not_ids():
    # a dict passed in, unlike a JSON document, may have keys of any type: the constructor
    # refuses them, and a width fault names the least key as its string
    ragged = [[["1", "0"], ["0"]], [["0", "0"], ["0", "0"]]]
    for blocks, message in (
        ({1: [[["1"]]]}, "block 1 needs a str id and int size and denominator"),
        ({"t1": ragged, 1: ragged}, "block 1 is not 2 wide at every level"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            table_from_dict({"blocks": blocks})


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

    # condition_m_check runs once in every rule pass
    calls = []
    original = crqmult.groups.condition_m_check

    def counting(ms):
        calls.append(ms)
        return original(ms)

    rng = random.Random(6)
    tables = [sample_member_table(two_block_spec(), rng)[0] for _ in range(10)]
    monkeypatch.setattr(crqmult.groups, "condition_m_check", counting)
    spec = two_block_spec()
    for table in tables:
        assert decide_membership(spec, table).member
        assert closure_oracle(spec, table)
    assert len(calls) == 1
