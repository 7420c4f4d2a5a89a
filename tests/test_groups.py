"""Spec validation, invariants, decomposition, and the random generator."""

import pytest

from crqmult.groups import (
    CRQGroupSpec,
    CriticalTypeData,
    GenBounds,
    GenerationError,
    IdempotentType,
    ensure_valid,
    main_decomposition,
    random_spec,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
    validate_spec,
)
from crqmult.numth import PrimeSet, condition_m_check, prime_factors


def make_type(tid, primes, rank, m, s=1):
    return CriticalTypeData(IdempotentType(tid, PrimeSet.of(primes)), rank, m, s)


def make_spec(*types):
    return CRQGroupSpec.of(types)


def test_valid_spec_has_no_violations():
    spec = make_spec(
        make_type("t1", [5], 2, 7, 2),
        make_type("t2", [2], 1, 7, 3),
    )
    assert validate_spec(spec) == []
    ensure_valid(spec)


def test_codes_for_broken_specs():
    dup = make_spec(make_type("t1", [5], 1, 1), make_type("t1", [3], 1, 1))
    assert [v.code for v in validate_spec(dup)] == ["DUPLICATE_TYPE"]

    zero_rank = make_spec(make_type("t1", [5], 0, 1))
    assert "RANK_ZERO" in [v.code for v in validate_spec(zero_rank)]

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
    assert spec.rank_of("t1") == 2
    with pytest.raises(ValueError):
        spec.data_for("t9")


def test_lookup_keeps_the_first_of_repeated_ids():
    first = make_type("t1", [5], 2, 1)
    spec = CRQGroupSpec((first, make_type("t1", [3], 1, 1)))
    assert spec.data_for("t1") is first
    assert [v.code for v in spec.violations] == ["DUPLICATE_TYPE"]


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
    with pytest.raises(GenerationError):
        random_spec(0, GenBounds(max_types=0, max_rank=1, max_m=1))
    with pytest.raises(GenerationError):
        # a single type cannot satisfy the shared prime power requirement
        random_spec(0, GenBounds(max_types=1, max_rank=1, max_m=6))
    with pytest.raises(GenerationError):
        random_spec(0, GenBounds(max_types=2, max_rank=2, max_m=6, prime_pool=(4,)))


def test_random_spec_single_type_trivial_quotient():
    spec = random_spec(5, GenBounds(max_types=1, max_rank=3, max_m=1))
    assert len(spec.types) == 1
    assert spec.types[0].m == 1
    assert spec.n == 1
    assert validate_spec(spec) == []
