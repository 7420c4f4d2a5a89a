"""Ambient elements, group membership, order, and purity."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crqmult.elements import (
    MAX_SCAN_INDEX,
    AmbientElement,
    GMembership,
    element_d,
    element_from_dict,
    in_G,
    in_g_closed_form,
    purity_oracle,
)
from crqmult.groups import CRQGroupSpec, CriticalTypeData
from crqmult.numth import PrimeSet, condition_m_check, is_prime
from crqmult.tables import MultTable
from reference import (
    basis_vector,
    fraction_block,
    in_scaled_A_tau,
    order_mod_A,
    project,
    purity_witness,
)


def make_type(tid, primes, rank, m, s=1):
    return CriticalTypeData(tid, PrimeSet.of(primes), rank, m, s)


def two_block_spec():
    return CRQGroupSpec.of(
        [make_type("t1", [5], 2, 7, 2), make_type("t2", [2], 1, 7, 3)]
    )


def test_element_arithmetic_and_canonical_form():
    a = AmbientElement.of({"t1": [1, 2]})
    b = AmbientElement.of({"t1": [Fraction(1, 2), -2], "t2": [3]})
    s = a + b
    assert fraction_block(s, "t1") == (Fraction(3, 2), Fraction(0))
    assert fraction_block(s, "t2") == (Fraction(3),)
    assert (a - a).is_zero
    # zero blocks are dropped so support stays minimal
    assert (b - b).support == ()
    assert fraction_block(a * Fraction(1, 3), "t1") == (Fraction(1, 3), Fraction(2, 3))
    assert fraction_block(-a, "t1") == (-1, -2)
    assert fraction_block(a, "missing") == ()


def test_element_rejects_mixed_lengths():
    a = AmbientElement.of({"t1": [1, 2]})
    b = AmbientElement.of({"t1": [1]})
    with pytest.raises(ValueError):
        a + b


BLOCK_RANKS = {"t1": 2, "t2": 1, "t3": 3}


def random_block(rng, rank, depth):
    if depth == 0:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return [random_block(rng, rank, depth - 1) for _ in range(rank)]


def random_blocks(cls, rng):
    tids = rng.sample(sorted(BLOCK_RANKS), rng.randint(0, len(BLOCK_RANKS)))
    return cls.of({t: random_block(rng, BLOCK_RANKS[t], cls.depth) for t in tids})


@pytest.mark.parametrize("cls", [AmbientElement, MultTable])
def test_block_container_group_laws(cls):
    rng = random.Random(3)
    for _ in range(40):
        a, b = random_blocks(cls, rng), random_blocks(cls, rng)
        assert (a + b) - b == a
        assert (a + (-a)).is_zero
        assert 2 * a == a + a
        assert a * Fraction(1, 2) + a * Fraction(1, 2) == a
        assert type(a + b) is cls


@pytest.mark.parametrize("cls", [AmbientElement, MultTable])
def test_block_container_drops_zero_blocks(cls):
    rng = random.Random(4)
    while True:
        a = random_blocks(cls, rng)
        if "t1" in a.support:
            break
    zero_t2 = [[[0]]] if cls.depth == 3 else [0]
    assert cls.of({"t2": zero_t2}).support == ()
    assert cls.of({"t2": zero_t2, "t1": fraction_block(a, "t1")}).support == ("t1",)
    assert "t1" not in (a - cls.of({"t1": fraction_block(a, "t1")})).support
    assert (0 * a).is_zero and fraction_block(a, "missing") == ()


def test_block_container_kinds_never_mix():
    assert AmbientElement.zero() != MultTable.zero()
    assert AmbientElement.of({"t1": [0]}) != MultTable.of({"t1": [[[0]]]})
    with pytest.raises(TypeError):
        AmbientElement.zero() + MultTable.zero()


def test_element_d_standard_form():
    spec = two_block_spec()
    d = element_d(spec)
    assert fraction_block(d, "t1") == (Fraction(2, 7), Fraction(0))
    assert fraction_block(d, "t2") == (Fraction(3, 7),)


def test_basis_element_and_projection():
    spec = two_block_spec()
    e = Fraction(5, 3) * basis_vector("t1", 2, 1)
    assert fraction_block(e, "t1") == (Fraction(0), Fraction(5, 3))
    assert project(spec, e, "t1") == e and project(spec, e, "t2").is_zero
    d = element_d(spec)
    assert fraction_block(project(spec, d, "t2"), "t2") == (Fraction(3, 7),)
    assert fraction_block(project(spec, d, "t2"), "t1") == ()


def test_in_scaled_block():
    spec = two_block_spec()
    # 14/5 = 7 * (2/5) and 2/5 is a unit at the infinite prime 5
    g = AmbientElement.of({"t1": [Fraction(14, 5), 0]})
    assert in_scaled_A_tau(spec, g, "t1", 7)
    assert not in_scaled_A_tau(spec, g, "t1", 49)
    h = AmbientElement.of({"t1": [1, 0]})
    assert in_scaled_A_tau(spec, h, "t1", 1)
    assert not in_scaled_A_tau(spec, h, "t1", 7)
    with pytest.raises(ValueError):
        in_scaled_A_tau(spec, element_d(spec), "t1", 7)  # support leaks to t2


def test_in_G_on_generators():
    spec = two_block_spec()
    d = element_d(spec)
    hit = in_G(spec, d)
    assert hit is not None and hit.k == 1 and hit.a.is_zero
    nd = d * spec.n
    hit = in_G(spec, nd)
    assert hit is not None and hit.k == 0 and hit.a == nd

    stray = AmbientElement.of({"t1": [Fraction(1, 7), 0]})
    assert in_G(spec, stray) is None

    inside = AmbientElement.of({"t1": [Fraction(1, 5), 3], "t2": [-2]})
    hit = in_G(spec, inside)
    assert hit is not None and hit.k == 0 and hit.a == inside


# (m, rank) of two clipped types sharing the prime invariant m: one index past
# MAX_SCAN_INDEX, and the rank-1000 scan under it that took 4.67 s unbounded
SCAN_REFUSALS = {
    "index-past-bound": (next(m for m in range(MAX_SCAN_INDEX + 1, 10**5) if is_prime(m)), 1),
    "rank-1000": (19997, 1000),
}


@pytest.mark.parametrize("case", sorted(SCAN_REFUSALS))
def test_in_G_refuses_large_scans_quickly(case):
    m, rank = SCAN_REFUSALS[case]
    spec = CRQGroupSpec.of([make_type("t1", [2], rank, m), make_type("t2", [3], rank, m)])
    # a coordinate over 5 keeps g out of G, so an unbounded scan would try every k
    g = AmbientElement.of({"t1": [Fraction(1, 5)] * rank, "t2": [Fraction(1, 5)] * rank})
    started = time.perf_counter()
    with pytest.raises(ValueError, match="scan limit"):
        in_G(spec, g)
    assert time.perf_counter() - started < 0.5


def test_in_G_answers_k_zero_past_the_work_bound():
    # an element of the regulator needs no scan, even where a scan is refused
    spec = CRQGroupSpec.of([make_type("t1", [2], 1000, 19997), make_type("t2", [3], 1000, 19997)])
    g = AmbientElement.of({"t1": [Fraction(1, 2)] * 1000})
    started = time.perf_counter()
    assert in_G(spec, g) == GMembership(0, g)
    assert time.perf_counter() - started < 0.5


def test_in_G_closed_form_matches_scan():
    spec = CRQGroupSpec.of(
        [
            make_type("t1", [5], 2, 4, 3),
            make_type("t2", [7], 1, 6),
            make_type("t3", [11], 1, 12, 5),
        ]
    )
    rng = random.Random(42)
    d = element_d(spec)
    for _ in range(150):
        k = rng.randrange(0, 2 * spec.n)
        noise = {}
        for t in spec.types:
            coords = []
            for _ in range(t.rank):
                num = rng.randrange(-6, 7)
                den = rng.choice([1] + list(t.inf_primes))
                coords.append(Fraction(num, den))
            noise[t.id] = coords
        g = d * k + AmbientElement.of(noise)
        scan = in_G(spec, g)
        closed = in_g_closed_form(spec, g)
        assert scan == closed
        assert scan is not None and scan.k == k % spec.n

    # elements off the lattice are rejected by both routes
    for _ in range(60):
        g = AmbientElement.of(
            {"t1": [Fraction(rng.randrange(1, 12), 12), 0]}
        )
        assert in_G(spec, g) == in_g_closed_form(spec, g)


def test_order_mod_regulator():
    spec = two_block_spec()
    g = AmbientElement.of({"t1": [Fraction(3, 7), 0]})
    assert order_mod_A(spec, g) == 7
    assert order_mod_A(spec, element_d(spec)) == 7
    assert order_mod_A(spec, AmbientElement.of({"t2": [Fraction(1, 5)]})) == 5
    assert order_mod_A(spec, AmbientElement.zero()) == 1


def test_order_matches_brute_force():
    spec = two_block_spec()
    rng = random.Random(9)
    for _ in range(80):
        blocks = {}
        for t in spec.types:
            coords = []
            for _ in range(t.rank):
                num = rng.randrange(-5, 6)
                den = rng.choice([1, 2, 3, 4, 7, 14, 21])
                coords.append(Fraction(num, den))
            blocks[t.id] = coords
        g = AmbientElement.of(blocks)
        order = order_mod_A(spec, g)
        assert order >= 1
        accum = AmbientElement.zero()
        for k in range(1, order + 1):
            accum = accum + g
            inside = accum.outside_regulator(spec) is None
            assert inside == (k == order)


def test_purity_oracle_and_witness():
    # lcm of the others is 2, so the block with m = 4 sits impurely
    spec = CRQGroupSpec.of(
        [make_type("t1", [5], 1, 4), make_type("t2", [3], 1, 2)]
    )
    assert not purity_oracle(spec, "t1")
    assert purity_oracle(spec, "t2")

    witness = purity_witness(spec, "t1")
    assert witness is not None
    x, mult = witness
    assert not in_scaled_A_tau(spec, x, "t1", 1)
    assert in_scaled_A_tau(spec, x * mult, "t1", 1)
    assert purity_witness(spec, "t2") is None


def test_every_block_pure_when_invariants_agree():
    spec = two_block_spec()
    for tid in spec.type_ids:
        assert purity_oracle(spec, tid)
        assert purity_witness(spec, tid) is None


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abcd"), st.integers(1, 72)), min_size=1, max_size=8))
def test_purity_and_condition_m_match_brute_force_lcm(entries):
    # entries sharing an id are one type to purity: all of them leave its lcm
    spec = CRQGroupSpec.of(make_type(tid, [29], 1, m) for tid, m in entries)
    for tid in spec.type_ids:
        m = spec.data_for(tid).m
        rest = math.lcm(*(other for t, other in entries if t != tid))
        assert purity_oracle(spec, tid) == (rest % m == 0)
        witness = purity_witness(spec, tid)
        assert (witness is None) == (rest % m == 0)
        if witness is not None:
            assert witness[1] == spec.n // rest
    # condition_m_check keys its values by position, so duplicates count apart
    ms = [m for _, m in entries]
    brute = all(math.lcm(*ms[:i], *ms[i + 1 :]) % m == 0 for i, m in enumerate(ms))
    assert condition_m_check(dict(enumerate(ms))) == brute


def test_fractional_multiple_of_basis_never_in_G():
    # only multiples of d may have denominators touching m
    rng = random.Random(31)
    spec = two_block_spec()
    for _ in range(40):
        num = rng.randrange(1, 7)
        g = AmbientElement.of({"t1": [0, Fraction(num, 7)]})
        assert in_G(spec, g) is None


def test_element_json_round_trip():
    g = AmbientElement.of({"t1": [Fraction(2, 7), 0], "t2": [Fraction(-3, 5)]})
    assert element_from_dict({"t1": ["2/7", "0"], "t2": ["-3/5"]}) == g
    assert element_from_dict({}) == AmbientElement.zero()
    parsed = element_from_dict({"t1": [3, "-2/7"]})
    assert parsed == AmbientElement.of({"t1": [3, Fraction(-2, 7)]})
    with pytest.raises(ValueError):
        element_from_dict({"t1": "nope"})
    with pytest.raises(ValueError):
        element_from_dict([1, 2])


@pytest.mark.parametrize("coord", [1.5, True, None, [1], "1.5", "x", " 3", "3 "])
def test_element_from_dict_rejects_non_fraction_coordinates(coord):
    with pytest.raises(ValueError):
        element_from_dict({"t1": [coord, "0"]})
