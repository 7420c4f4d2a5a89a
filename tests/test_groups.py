"""Spec validation, invariants, decomposition, and the random generator."""

import hashlib
import itertools
import re
import time
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crqmult import groups
from crqmult.elements import AmbientElement, in_G
from crqmult.groups import (
    MAX_TYPES,
    CRQGroupSpec,
    CriticalTypeData,
    GenBounds,
    Violation,
    ensure_valid,
    main_decomposition,
    random_spec,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
    validate_spec,
)
from crqmult.multgroup import compute_mult_group, coset_relation, cross_basis_example
from crqmult.numth import LimitError, PrimeSet, condition_m_check, is_prime, prime_factors
from crqmult.tables import (
    MembershipFailure,
    MembershipVerdict,
    MultTable,
    closure_oracle,
    decide_membership,
    generator_x,
)
from reference import element_d, make_type


def make_spec(*types):
    return CRQGroupSpec(types)


def test_valid_spec_has_no_violations():
    spec = make_spec(
        make_type("t1", [5], 2, 7, 2),
        make_type("t2", [2], 1, 7, 3),
    )
    assert validate_spec(spec) == []
    ensure_valid(spec)


def test_validation_at_the_type_bound_is_quick():
    # pairwise incomparable single-prime types; one past the bound is refused unread
    primes = [p for p in range(5, 10**4) if is_prime(p)][: MAX_TYPES + 1]
    types = [make_type(f"t{i:04d}", [p], 1, 3) for i, p in enumerate(primes)]
    spec = CRQGroupSpec(types[:MAX_TYPES])
    started = time.perf_counter()
    assert validate_spec(spec) == []
    assert time.perf_counter() - started < 0.5
    with pytest.raises(LimitError) as refused:
        validate_spec(CRQGroupSpec(types))
    assert (refused.value.name, refused.value.value) == ("MAX_TYPES", MAX_TYPES + 1)


def test_codes_for_broken_specs():
    # a repeated id and a rank below 1 never reach the rule pass: the constructors refuse them
    # the scaling modulus may not involve the type's own infinite primes
    bad_m = make_spec(make_type("t1", [7], 1, 7), make_type("t2", [3], 1, 7))
    assert "M_NOT_P0" in [v.code for v in validate_spec(bad_m)]

    bad_s = make_spec(make_type("t1", [3], 1, 7, 3), make_type("t2", [2], 1, 7))
    assert "S_NOT_P0" in [v.code for v in validate_spec(bad_s)]

    not_coprime = make_spec(make_type("t1", [5], 1, 6, 3), make_type("t2", [7], 1, 6))
    assert "S_M_NOT_COPRIME" in [v.code for v in validate_spec(not_coprime)]

    nested = make_spec(make_type("t1", [2], 1, 1), make_type("t2", [2, 3], 1, 1))
    assert [v.code for v in validate_spec(nested)] == ["COMPARABLE_TYPES"]

    lonely = make_spec(make_type("t1", [5], 1, 7))
    assert [v.code for v in validate_spec(lonely)] == ["CONDITION_M_FAILED"]

    partial = make_spec(make_type("t1", [5], 1, 4), make_type("t2", [3], 1, 2))
    assert [v.code for v in validate_spec(partial)] == ["CONDITION_M_FAILED"]


def test_ensure_valid_raises_with_joined_message():
    spec = make_spec(make_type("t1", [5], 1, 7))
    with pytest.raises(ValueError, match="CONDITION_M_FAILED"):
        ensure_valid(spec)
    for not_a_spec in (None, {}, spec.types):
        with pytest.raises(ValueError, match="expected a CRQGroupSpec"):
            ensure_valid(not_a_spec)


def test_regulator_index():
    spec = make_spec(
        make_type("t1", [5], 1, 4),
        make_type("t2", [11], 1, 6),
        make_type("t3", [7], 1, 12),
    )
    assert spec.n == 12


def test_t0_and_lookup():
    spec = make_spec(
        make_type("t1", [5], 2, 7, 2),
        make_type("t2", [2], 1, 7, 3),
        make_type("t3", [3], 4, 1),
    )
    assert spec.type_ids == ("t1", "t2", "t3")
    assert spec.t0_ids == ("t1", "t2")
    assert spec.data_for("t3").m == 1
    assert spec.data_for("t1").rank == 2
    with pytest.raises(ValueError):
        spec.data_for("t9")


PRIMES = PrimeSet((2,))
# each value, and random_spec, refuses a malformed argument with ValueError and its message
CONSTRUCTOR_REFUSALS = {
    "type-primes-a-list": (
        lambda: CriticalTypeData("t1", [2], 1, 7, 3),
        "inf_primes must be a PrimeSet, got list",
    ),
    "type-rank-a-string": (
        lambda: CriticalTypeData("t1", PRIMES, "1", 7, 3),
        "rank must be an integer",
    ),
    "type-rank-a-bool-m-a-float": (
        lambda: CriticalTypeData("t1", PRIMES, True, 7.0, 3),
        "rank must be an integer",
    ),
    "type-m-a-float": (lambda: CriticalTypeData("t1", PRIMES, 1, 7.0, 3), "m must be an integer"),
    "type-s-a-float": (lambda: CriticalTypeData("t1", PRIMES, 1, 7, 3.0), "s must be an integer"),
    "type-id-not-a-string": (
        lambda: CriticalTypeData(1, PRIMES, 1, 7, 3),
        "type id must be a string",
    ),
    "type-rank-zero": (
        lambda: CriticalTypeData("t1", PRIMES, 0, 1),
        "type 't1' has rank 0 and m = 1; both must be at least 1",
    ),
    "spec-tuple-entry": (
        lambda: CRQGroupSpec([("t1", PRIMES, 1, 1, 1)]),
        "expected CriticalTypeData entries, got tuple",
    ),
    "spec-repeated-id": (
        lambda: CRQGroupSpec((make_type("t1", [5], 2, 1), make_type("t1", [3], 1, 1))),
        "type 't1' is given twice",
    ),
    "primes-a-bool": (lambda: PrimeSet([True]), "inf_primes must not contain booleans"),
    "primes-a-string": (lambda: PrimeSet(["5"]), "inf_primes must be a list of integers"),
    "table-size-a-float": (
        lambda: MultTable([("t1", 1.0, 1, [7])]),
        "block 't1' needs a str id and int size and denominator",
    ),
    "table-numerator-a-float": (
        lambda: MultTable([("t1", 1, 1, [7.0])]),
        "block 't1' has a numerator that is not an int",
    ),
    "element-id-not-a-string": (
        lambda: AmbientElement([(1, 1, 1, [7])]),
        "block 1 needs a str id and int size and denominator",
    ),
    # an id is read before any two are compared, so ids of mixed types never meet in the sort
    "element-ids-of-mixed-types": (
        lambda: AmbientElement([(1, 1, 1, [7]), ("t1", 1, 1, [7])]),
        "block 1 needs a str id and int size and denominator",
    ),
    "table-numerators-an-int": (
        lambda: MultTable([("t1", 1, 1, 7)]),
        "block 't1' has numerators that are not a sequence",
    ),
    # the numerators of an all-zero block are read before it is dropped
    "element-numerator-none": (
        lambda: AmbientElement([("t1", 1, 1, [None])]),
        "block 't1' has a numerator that is not an int",
    ),
    "element-entry-of-three-fields": (
        lambda: AmbientElement([("t1", 1, 1)]),
        "block entry ('t1', 1, 1) is not an (id, size, denominator, numerators) 4-sequence",
    ),
    "element-numerators-a-generator": (
        lambda: AmbientElement([("t1", 1, 1, (x for x in [7]))]),
        "block 't1' has numerators that are not a sequence",
    ),
    "spec-not-iterable": (lambda: CRQGroupSpec(5), "expected CriticalTypeData entries, got int"),
    "generator-bounds-none": (
        lambda: random_spec(0, None),
        "bounds must be a GenBounds, got NoneType",
    ),
    "generator-seed-a-list": (lambda: random_spec([1]), "seed must be an integer, got list"),
    "generator-bound-a-string": (
        lambda: random_spec(0, GenBounds("3", 3, 36)),
        "bounds must be positive, got GenBounds(max_types='3', max_rank=3, max_m=36)",
    ),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCTOR_REFUSALS))
def test_a_malformed_field_is_refused_at_construction(case):
    build, message = CONSTRUCTOR_REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


IDS = st.sampled_from(["t1", "t2"])
SMALL = st.integers(-1, 7)
# any value of these kinds, nested in lists and tuples of any length
ANY = st.recursive(
    st.none() | st.booleans() | SMALL | st.integers() | st.floats() | st.text(max_size=2) | IDS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple),
    max_leaves=6,
)
# arguments that are often of the right shape, so that some of them build a value
TYPE_FIELDS = st.tuples(IDS, st.just(PrimeSet([5])), st.integers(1, 3), st.integers(1, 7), SMALL)
ENTRY = st.tuples(IDS | ANY, st.integers(-1, 2) | ANY, st.integers(-3, 3) | ANY, ANY) | ANY
BOUNDS = st.builds(GenBounds, SMALL | ANY, SMALL | ANY, SMALL | ANY) | ANY


def built(build, *args):
    """The value built from args, or None when ValueError refuses them."""
    try:
        return build(*args)
    except ValueError:
        return None


@settings(max_examples=100, deadline=None)
@given(
    ANY,
    TYPE_FIELDS | st.tuples(ANY, ANY, ANY, ANY, ANY),
    st.lists(ANY, max_size=2),
    ANY,
    st.lists(ENTRY, max_size=3) | ANY,
    SMALL | ANY,
    BOUNDS,
)
def test_constructors_end_in_a_value_or_a_value_error(
    primes, fields, others, types, entries, seed, bounds
):
    prime_set = built(PrimeSet, primes)
    if prime_set is not None:
        assert PrimeSet(prime_set.primes) == prime_set
    entry = built(CriticalTypeData, *fields)
    if entry is not None:
        assert CriticalTypeData(entry.id, entry.inf_primes, entry.rank, entry.m, entry.s) == entry
    built(CRQGroupSpec, types)
    spec = built(CRQGroupSpec, [entry, *others])
    if spec is not None:
        assert CRQGroupSpec(spec.types) == spec
    for container in (AmbientElement, MultTable):
        value = built(container, entries)
        if value is not None:
            assert container(value.parts) == value
    built(random_spec, seed, bounds)


def test_a_spec_is_one_value_in_any_type_order():
    types = (
        make_type("t1", [5], 2, 7, 2),
        make_type("t2", [2], 1, 7, 3),
        make_type("t3", [3], 4, 1),
    )
    canonical = CRQGroupSpec(types)
    for order in itertools.permutations(types):
        spec = CRQGroupSpec(order)
        assert spec.types == types and spec == canonical
        assert hash(spec) == hash(canonical) and repr(spec) == repr(canonical)


# sha256 of spec_to_json(random_spec(seed, GenBounds(3, 3, 36))) for seeds 0..199 in turn,
# the acceptance population: how specs are built must not change a generated spec's bytes
ACCEPTANCE_SPECS_SHA256 = "35bae645f22d1e86c1e538f980f262ac961a935f3bd9e9692ddbc8bc8358956d"


def test_generated_specs_keep_their_bytes():
    digest = hashlib.sha256()
    for seed in range(200):
        digest.update(spec_to_json(random_spec(seed, GenBounds(3, 3, 36))).encode())
    assert digest.hexdigest() == ACCEPTANCE_SPECS_SHA256


# sha256 of spec_to_json(random_spec(seed, bounds)) for seeds 0..299 under each bounds in
# turn: wider m, more types and a single prime power, so a change to how s or m is drawn
# shows at bounds the acceptance population never reaches
OTHER_BOUNDS = (
    GenBounds(5, 2, 1000),
    GenBounds(8, 1, 10**4),
    GenBounds(13, 2, 10**5),
    GenBounds(4, 4, 5000),
    GenBounds(2, 1, 2),
)
OTHER_BOUNDS_SPECS_SHA256 = "fca323432bcf885a0c1afa2743060cfea75ebc9b519b836a2671b9e3c00b54b2"


def test_generated_specs_keep_their_bytes_at_other_bounds():
    digest = hashlib.sha256()
    for bounds in OTHER_BOUNDS:
        for seed in range(300):
            digest.update(spec_to_json(random_spec(seed, bounds)).encode())
    assert digest.hexdigest() == OTHER_BOUNDS_SPECS_SHA256


def test_unit_modulus_normalizes_coefficient():
    d = make_type("t1", [5], 2, 1, 0)
    assert d.m == 1 and d.s == 1


def test_main_decomposition_counts():
    spec = make_spec(
        make_type("t1", [5], 2, 7, 2),
        make_type("t2", [2], 1, 7, 3),
        make_type("t3", [3], 4, 1),
    )
    decomp = main_decomposition(spec)
    assert decomp.clipped == ("t1", "t2")
    assert dict(decomp.complement) == {"t1": 1, "t2": 0, "t3": 4}
    # one slot per clipped type is absorbed by the cyclic part
    total = sum(k for _, k in decomp.complement)
    assert total == sum(t.rank for t in spec.types) - len(decomp.clipped)


def test_spec_json_round_trip():
    spec = make_spec(
        make_type("t1", [5], 2, 7, 2),
        make_type("t2", [2], 1, 7, 3),
    )
    text = spec_to_json(spec)
    assert spec_from_json(text) == spec
    assert spec_to_json(spec_from_json(text)) == text


def test_spec_from_json_refuses_a_repeated_key():
    text = '{"types": [{"id": "t1", "id": "t2", "inf_primes": [5], "rank": 1, "m": 1, "s": 1}]}'
    with pytest.raises(ValueError, match="JSON object repeats key 'id'"):
        spec_from_json(text)


def test_spec_from_dict_rejects_bad_shapes():
    with pytest.raises(ValueError):
        spec_from_dict({"types": "nope"})
    with pytest.raises(ValueError):
        spec_from_dict({})
    with pytest.raises(ValueError):
        spec_from_dict({"types": [{"id": "t1"}]})
    entry = {"id": "t1", "inf_primes": [5, True], "rank": 1, "m": 1, "s": 1}
    with pytest.raises(ValueError, match="inf_primes must not contain booleans"):
        spec_from_dict({"types": [entry]})
    entry = {"id": "t1", "inf_primes": [5], "rank": 1, "m": 1, "s": 1, "S": 3, "note": ""}
    with pytest.raises(ValueError, match=r"unknown keys: \['S', 'note'\]"):
        spec_from_dict({"types": [entry]})


def test_random_spec_is_deterministic():
    a = random_spec(123)
    b = random_spec(123)
    assert a == b
    assert spec_to_json(a) == spec_to_json(b)
    assert random_spec(124) != a


def test_random_spec_always_validates():
    for seed in range(120):
        spec = random_spec(seed)
        assert validate_spec(spec) == [], seed
        ms = {t.id: t.m for t in spec.types}
        assert condition_m_check(ms)


def test_random_spec_respects_bounds():
    bounds = GenBounds(max_types=4, max_rank=2, max_m=20)
    for seed in range(60):
        spec = random_spec(seed, bounds)
        assert 1 <= len(spec.types) <= 4
        for t in spec.types:
            assert 1 <= t.rank <= 2
            assert t.m <= 20
            for p in prime_factors(t.m):
                assert p not in t.inf_primes


def test_random_spec_rejects_impossible_bounds():
    message = "bounds must be positive, got GenBounds(max_types=0, max_rank=1, max_m=1)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        random_spec(0, GenBounds(max_types=0, max_rank=1, max_m=1))
    # a single type cannot satisfy the shared prime power requirement
    message = "a single type cannot share its prime powers, need max_m == 1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        random_spec(0, GenBounds(max_types=1, max_rank=1, max_m=6))
    # thirteen pool primes distinguish at most thirteen types
    message = "prime pool of size 13 cannot distinguish 14 types"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        random_spec(0, GenBounds(max_types=14, max_rank=1, max_m=6))


def test_random_spec_time_does_not_grow_with_max_m():
    # 10**4299 is the widest max_m that `gen --max-m` reads
    for seed in range(5):
        started = time.perf_counter()
        spec = random_spec(seed, GenBounds(3, 3, 10**4299))
        assert time.perf_counter() - started < 0.5, seed
        assert validate_spec(spec) == [], seed
    # more types draw more prime powers: a search that recomputes p**k at each step of k
    # took 3.6 s over these twenty specs (Python 3.11, 2-vCPU VM), a running power 0.13 s
    started = time.perf_counter()
    for seed in range(20):
        random_spec(seed, GenBounds(13, 3, 10**4299))
    assert time.perf_counter() - started < 1.0


def test_random_spec_single_type_trivial_quotient():
    spec = random_spec(5, GenBounds(max_types=1, max_rank=3, max_m=1))
    assert len(spec.types) == 1
    assert spec.types[0].m == 1
    assert spec.n == 1
    assert validate_spec(spec) == []


@pytest.fixture(scope="module")
def records():
    """One instance of each record class of the library, by class name."""
    spec = make_spec(make_type("t1", [5], 2, 7, 2), make_type("t2", [2], 1, 7, 3))
    desc = compute_mult_group(spec)
    coset = coset_relation(spec, 3, AmbientElement(), samples=1)
    cross = cross_basis_example(2, 3, 7)
    failure = MembershipFailure("CORNER_RESIDUE", "t1", (0, 0), "slot 1 is nonzero")
    samples = [
        spec.types[0].inf_primes,
        spec.types[0],
        spec,
        Violation("S_M_NOT_COPRIME", ("t1",), "gcd(7, 7) != 1"),
        main_decomposition(spec),
        GenBounds(),
        element_d(spec),
        in_G(spec, element_d(spec)),
        failure,
        MembershipVerdict(False, None, failure),
        desc.regulator[0],
        desc,
        coset.relation,
        coset,
        cross.cases[0],
        cross,
    ]
    return {type(r).__name__: r for r in samples}


RECORD_NAMES = [
    "PrimeSet",
    "CriticalTypeData",
    "CRQGroupSpec",
    "Violation",
    "MainDecomposition",
    "GenBounds",
    "AmbientElement",
    "GMembership",
    "MembershipFailure",
    "MembershipVerdict",
    "RegulatorBlock",
    "MultGroupDescriptor",
    "CosetRelation",
    "CosetReport",
    "CrossBasisCase",
    "CrossBasisReport",
]


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_records_are_frozen_values(records, name):
    r = records[name]
    cls = type(r)
    fields = cls.__match_args__
    values = tuple(getattr(r, f) for f in fields)
    # the hash is that of the field tuple, so set and dict order follow the fields
    assert hash(r) == hash(values)
    assert r == cls(*values) == cls(**dict(zip(fields, values)))
    assert repr(r).startswith(f"{cls.__name__}({fields[0]}=")
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(r, f, None)
        with pytest.raises(AttributeError):
            delattr(r, f)
    assert tuple(getattr(r, f) for f in fields) == values


def test_records_bind_arguments_as_declared():
    assert GenBounds() == GenBounds(3, 3, 36) == GenBounds(max_m=36, max_types=3)
    assert GenBounds(5, max_m=7) == GenBounds(5, 3, 7)
    assert repr(GenBounds()) == "GenBounds(max_types=3, max_rank=3, max_m=36)"
    assert Violation("X").subjects == () and Violation("X").detail == ""
    for bad in (
        lambda: GenBounds(1, 2, 3, 4),
        lambda: GenBounds(bogus=1),
        lambda: GenBounds(1, max_types=2),
        lambda: Violation(),
    ):
        with pytest.raises(TypeError):
            bad()
    # a record's own __init__ checks and canonicalizes positional and keyword arguments alike
    with pytest.raises(ValueError):
        PrimeSet((4,))
    assert PrimeSet(primes=(3, 2)).primes == (2, 3)
    primes = PrimeSet((5,))
    with pytest.raises(ValueError):
        CriticalTypeData("t1", primes, 1, m=0)
    assert CriticalTypeData(id="t1", inf_primes=primes, rank=1, m=1, s=4).s == 1


def test_spec_computes_its_violations_once(monkeypatch):
    # condition_m_check runs once in every rule pass
    passes = []
    check = groups.condition_m_check
    monkeypatch.setattr(groups, "condition_m_check", lambda ms: passes.append(ms) or check(ms))
    # the regulator index is an lcm over the types, read several times per table check
    computed = []
    regulator_index = CRQGroupSpec.n.func
    counted = cached_property(lambda spec: computed.append(1) or regulator_index(spec))
    counted.__set_name__(CRQGroupSpec, "n")
    monkeypatch.setattr(CRQGroupSpec, "n", counted)
    spec = make_spec(make_type("t1", [5], 2, 7, 2), make_type("t2", [2], 1, 7, 3))
    for _ in range(3):
        ensure_valid(spec)
        assert spec.violations == ()
    main_decomposition(spec)
    assert len(passes) == 1
    # a batch validates its spec, then every guard reads the kept result
    fresh = make_spec(make_type("t1", [5], 2, 7, 2), make_type("t2", [2], 1, 7, 3))
    assert validate_spec(fresh) == []
    ensure_valid(fresh)
    assert len(passes) == 2
    table = 3 * generator_x(spec)
    for _ in range(2):
        assert decide_membership(spec, table).alpha == (3, 7)
        assert closure_oracle(spec, table)
    assert spec.n == 7 and len(computed) == 1
