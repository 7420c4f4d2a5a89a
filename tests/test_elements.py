"""Ambient elements, group membership, order, and purity."""

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crqmult.elements import (
    MAX_SCAN_WORK,
    AmbientElement,
    GMembership,
    element_from_dict,
    in_G,
    purity_oracle,
)
from crqmult.groups import CRQGroupSpec, GenBounds, random_spec
from crqmult.numth import LimitError, condition_m_check, is_prime
from crqmult.tables import MultTable
from reference import (
    basis_vector,
    blocks_of,
    element_d,
    element_of,
    fraction_block,
    in_g_closed_form,
    in_scaled_A_tau,
    make_type,
    order_mod_A,
    project,
    purity_witness,
    ref_in_G,
    scaled,
    support,
    table_of,
    two_block_spec,
)


def test_element_arithmetic_and_canonical_form():
    a = element_of({"t1": [1, 2]})
    b = element_of({"t1": [Fraction(1, 2), -2], "t2": [3]})
    s = a + b
    assert fraction_block(s, "t1") == (Fraction(3, 2), Fraction(0))
    assert fraction_block(s, "t2") == (Fraction(3),)
    assert (a - a).parts == ()
    # zero blocks are dropped so support stays minimal
    assert support(b - b) == ()
    assert fraction_block(scaled(a, Fraction(1, 3)), "t1") == (Fraction(1, 3), Fraction(2, 3))
    assert 3 * element_of({"t1": [Fraction(1, 3), Fraction(2, 3)]}) == a
    assert fraction_block(-a, "t1") == (-1, -2)
    assert fraction_block(a, "missing") == ()


@pytest.mark.parametrize("cls", [AmbientElement, MultTable])
def test_no_float_or_fraction_enters_a_block(cls):
    def block(c):
        return [[[c]]] if cls.depth == 3 else [c]

    a = blocks_of(cls, {"t1": block(1)})
    assert a * True == a and 0 * a == cls()
    for scalar in (0.5, Fraction(1, 2), 2.0, "2"):
        with pytest.raises(TypeError):
            a * scalar
        with pytest.raises(TypeError):
            scalar * a
    with pytest.raises(TypeError):
        blocks_of(cls, {"t1": block(0.1)})


def test_element_rejects_mixed_lengths():
    a = element_of({"t1": [1, 2]})
    b = element_of({"t1": [1]})
    with pytest.raises(ValueError):
        a + b


BLOCK_RANKS = {"t1": 2, "t2": 1, "t3": 3}


def random_block(rng, rank, depth):
    if depth == 0:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return [random_block(rng, rank, depth - 1) for _ in range(rank)]


def random_blocks(cls, rng):
    tids = rng.sample(sorted(BLOCK_RANKS), rng.randint(0, len(BLOCK_RANKS)))
    return blocks_of(cls, {t: random_block(rng, BLOCK_RANKS[t], cls.depth) for t in tids})


@pytest.mark.parametrize("cls", [AmbientElement, MultTable])
def test_block_container_group_laws(cls):
    rng = random.Random(3)
    for _ in range(40):
        a, b = random_blocks(cls, rng), random_blocks(cls, rng)
        assert (a + b) - b == a
        assert (a + (-a)).parts == ()
        assert 2 * a == a + a
        half = scaled(a, Fraction(1, 2))
        assert half + half == a and 2 * half == a
        assert type(a + b) is cls


@pytest.mark.parametrize("cls", [AmbientElement, MultTable])
def test_block_container_drops_zero_blocks(cls):
    rng = random.Random(4)
    while True:
        a = random_blocks(cls, rng)
        if "t1" in support(a):
            break
    zero_t2 = [[[0]]] if cls.depth == 3 else [0]
    assert support(blocks_of(cls, {"t2": zero_t2})) == ()
    assert support(blocks_of(cls, {"t2": zero_t2, "t1": fraction_block(a, "t1")})) == ("t1",)
    assert "t1" not in support(a - blocks_of(cls, {"t1": fraction_block(a, "t1")}))
    assert (0 * a).parts == () and fraction_block(a, "missing") == ()


def test_block_container_kinds_never_mix():
    assert AmbientElement() != MultTable()
    assert element_of({"t1": [0]}) != table_of({"t1": [[[0]]]})
    with pytest.raises(TypeError):
        AmbientElement() + MultTable()


def test_element_d_standard_form():
    spec = two_block_spec()
    d = element_d(spec)
    assert fraction_block(d, "t1") == (Fraction(2, 7), Fraction(0))
    assert fraction_block(d, "t2") == (Fraction(3, 7),)


def test_basis_element_and_projection():
    spec = two_block_spec()
    e = scaled(basis_vector("t1", 2, 1), Fraction(5, 3))
    assert fraction_block(e, "t1") == (Fraction(0), Fraction(5, 3))
    assert project(spec, e, "t1") == e and project(spec, e, "t2").parts == ()
    d = element_d(spec)
    assert fraction_block(project(spec, d, "t2"), "t2") == (Fraction(3, 7),)
    assert fraction_block(project(spec, d, "t2"), "t1") == ()


def test_in_scaled_block():
    spec = two_block_spec()
    # 14/5 = 7 * (2/5) and 2/5 is a unit at the infinite prime 5
    g = element_of({"t1": [Fraction(14, 5), 0]})
    assert in_scaled_A_tau(spec, g, "t1", 7)
    assert not in_scaled_A_tau(spec, g, "t1", 49)
    h = element_of({"t1": [1, 0]})
    assert in_scaled_A_tau(spec, h, "t1", 1)
    assert not in_scaled_A_tau(spec, h, "t1", 7)
    with pytest.raises(ValueError):
        in_scaled_A_tau(spec, element_d(spec), "t1", 7)  # support leaks to t2


def test_in_G_on_generators():
    spec = two_block_spec()
    d = element_d(spec)
    hit = in_G(spec, d)
    assert hit is not None and hit.k == 1 and hit.a.parts == ()
    nd = d * spec.n
    hit = in_G(spec, nd)
    assert hit is not None and hit.k == 0 and hit.a == nd

    stray = element_of({"t1": [Fraction(1, 7), 0]})
    assert in_G(spec, stray) is None

    inside = element_of({"t1": [Fraction(1, 5), 3], "t2": [-2]})
    hit = in_G(spec, inside)
    assert hit is not None and hit.k == 0 and hit.a == inside


# the least prime m whose scan over two rank-1 types sharing it passes MAX_SCAN_WORK: from
# m = MAX_SCAN_WORK // 2 on, 2m residues plus the witness's two coordinates pass it
PAST_SCAN_BOUND = next(filter(is_prime, itertools.count(MAX_SCAN_WORK // 2)))
# (m, rank) of two clipped types sharing the prime invariant m: the index past the bound
SCAN_REFUSALS = {
    "index-past-bound": (PAST_SCAN_BOUND, 1),
}


@pytest.mark.parametrize("case", sorted(SCAN_REFUSALS))
def test_in_G_refuses_large_scans_quickly(case):
    m, rank = SCAN_REFUSALS[case]
    spec = CRQGroupSpec([make_type("t1", [2], rank, m), make_type("t2", [3], rank, m)])
    # a coordinate over 5 keeps g out of G, so an unbounded scan would try every k
    g = element_of({"t1": [Fraction(1, 5)] * rank, "t2": [Fraction(1, 5)] * rank})
    started = time.perf_counter()
    with pytest.raises(LimitError) as refused:
        in_G(spec, g)
    assert time.perf_counter() - started < 0.5
    assert refused.value.name == "MAX_SCAN_WORK" and refused.value.value > MAX_SCAN_WORK


@pytest.mark.parametrize("slots", ["every-coordinate", "slot-0"])
def test_in_G_answers_rank_1000_quickly(slots):
    # two rank-1000 types at n = 19997 took 4.67 s when every candidate re-read every
    # coordinate: 1/5 past slot 0 answers at once, 1/5 on slot 0 alone is a full scan
    spec = CRQGroupSpec([make_type("t1", [2], 1000, 19997), make_type("t2", [3], 1000, 19997)])
    vec = [Fraction(1, 5)] * 1000 if slots == "every-coordinate" else [Fraction(1, 5)] + [0] * 999
    g = element_of({"t1": vec, "t2": vec})
    started = time.perf_counter()
    assert in_G(spec, g) is None
    assert time.perf_counter() - started < 0.5


def test_in_G_answers_k_zero_past_the_work_bound():
    # an element of the regulator needs no scan, even where a scan is refused
    m = PAST_SCAN_BOUND
    spec = CRQGroupSpec([make_type("t1", [2], 1000, m), make_type("t2", [3], 1000, m)])
    g = element_of({"t1": [Fraction(1, 2)] * 1000})
    started = time.perf_counter()
    assert in_G(spec, g) == GMembership(0, g)
    assert time.perf_counter() - started < 0.5


def test_in_G_refuses_past_the_work_bound_before_building_the_generator():
    # the generator d would store a vector of rank 10^7 for t2 alone
    spec = CRQGroupSpec([make_type("t1", [3], 1, 2), make_type("t2", [5], 10**7, 2)])
    g = element_of({"t1": [Fraction(1, 4)]})
    message = (
        "the scan work at n = 2 reaches 10000005, past the bound MAX_SCAN_WORK = 60000"
    )
    tracemalloc.start()
    try:
        with pytest.raises(LimitError) as refused:
            in_G(spec, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(refused.value) == message
    assert peak < 2**20


def test_in_G_closed_form_matches_scan():
    spec = CRQGroupSpec(
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
        g = d * k + element_of(noise)
        scan = in_G(spec, g)
        closed = in_g_closed_form(spec, g)
        assert scan == closed
        assert scan is not None and scan.k == k % spec.n

    # elements off the lattice are rejected by both routes
    for _ in range(60):
        g = element_of(
            {"t1": [Fraction(rng.randrange(1, 12), 12), 0]}
        )
        assert in_G(spec, g) == in_g_closed_form(spec, g)


# denominators that put a coordinate outside the regulator of every type that lacks them;
# 2 to 11 also divide some invariants m, so slot 0 of a multiple of d carries them too
OUTSIDE_PRIMES = (2, 3, 5, 7, 11, 43, 47)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_in_G_agrees_with_closed_form_and_definition(seed, data):
    spec = random_spec(seed, GenBounds(5, 3, 2000))
    if not spec.clipped or spec.n > 2000:
        return
    k = data.draw(st.integers(0, spec.n - 1))
    blocks = {}
    for t in spec.types:
        coord = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, *t.inf_primes)))
        blocks[t.id] = data.draw(st.lists(coord, min_size=t.rank, max_size=t.rank))
    for t in spec.clipped:
        blocks[t.id][0] += Fraction(k * t.s, t.m)
    # a member k*d + noise, or one coordinate moved outside the regulator
    targets = {
        "clipped slot 0": [(t, 0) for t in spec.clipped],
        "later clipped slot": [(t, i) for t in spec.clipped for i in range(1, t.rank)],
        "unclipped block": [(t, i) for t in spec.types if t.m == 1 for i in range(t.rank)],
    }
    places = ["member", "clipped block absent", *(p for p, ts in targets.items() if ts)]
    place = data.draw(st.sampled_from(places))
    if place == "clipped block absent":
        del blocks[data.draw(st.sampled_from(spec.clipped)).id]
    elif place != "member":
        t, slot = data.draw(st.sampled_from(targets[place]))
        q = data.draw(st.sampled_from([p for p in OUTSIDE_PRIMES if p not in t.inf_primes]))
        blocks[t.id][slot] += Fraction(1, q)
    g = element_of(blocks)
    expected = ref_in_G(spec, g)
    assert in_G(spec, g) == in_g_closed_form(spec, g) == expected
    if place == "member":
        assert expected == GMembership(k, g - k * element_d(spec))


# invariants shared by two clipped types, shaped like the CLI's large-index spec: a small
# prime; MAX_SCAN_WORK // 2 - 1, where a scan of two rank-1 types comes to the bound and
# any larger rank passes it; and the primes nearest the bound on either side
EDGE_INVARIANTS = (
    101,
    MAX_SCAN_WORK // 2 - 1,
    *filter(is_prime, range(PAST_SCAN_BOUND - 25, PAST_SCAN_BOUND + 3)),
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    m=st.sampled_from(EDGE_INVARIANTS),
    ranks=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    s=st.sampled_from([1, 3, 5, 7]),
    data=st.data(),
)
def test_in_G_refuses_only_a_scan_past_the_bound(m, ranks, s, data):
    spec = CRQGroupSpec(
        [make_type("t1", [2], ranks[0], m, s), make_type("t2", [3], ranks[1], m)]
    )
    k = data.draw(st.one_of(st.just(0), st.integers(0, m - 1)))
    blocks = {}
    for t in spec.types:
        coord = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, *t.inf_primes)))
        blocks[t.id] = data.draw(st.lists(coord, min_size=t.rank, max_size=t.rank))
        blocks[t.id][0] += Fraction(k * t.s, t.m)
    targets = {
        "clipped slot 0": [(t, 0) for t in spec.types],
        "later clipped slot": [(t, i) for t in spec.types for i in range(1, t.rank)],
    }
    places = ["member", "clipped block absent", *(p for p, ts in targets.items() if ts)]
    place = data.draw(st.sampled_from(places))
    if place == "clipped block absent":
        del blocks[data.draw(st.sampled_from(spec.types)).id]
    elif place != "member":
        t, slot = data.draw(st.sampled_from(targets[place]))
        q = data.draw(st.sampled_from([p for p in OUTSIDE_PRIMES if p not in t.inf_primes]))
        blocks[t.id][slot] += Fraction(1, q)
    g = element_of(blocks)
    closed = in_g_closed_form(spec, g)
    # k = 0 and a coordinate past slot 0 outside the regulator are answered without a scan
    needs_scan = place != "later clipped slot" and (closed is None or closed.k != 0)
    if needs_scan and 2 * spec.n + sum(ranks) > MAX_SCAN_WORK:
        with pytest.raises(LimitError) as refused:
            in_G(spec, g)
        assert refused.value.name == "MAX_SCAN_WORK"
    else:
        assert in_G(spec, g) == closed


def test_in_G_stops_at_a_coordinate_no_multiple_of_d_moves():
    # n = 19997, but 1/3 on the unclipped type stays outside for every k
    spec = CRQGroupSpec(
        [make_type("t1", [2], 1, 19997), make_type("t2", [5], 1, 19997), make_type("u", [7], 1, 1)]
    )
    g = element_of({"u": [Fraction(1, 3)]})
    started = time.perf_counter()
    assert in_G(spec, g) is None
    assert time.perf_counter() - started < 0.005  # trying every candidate takes over 0.01 s


def test_order_mod_regulator():
    spec = two_block_spec()
    g = element_of({"t1": [Fraction(3, 7), 0]})
    assert order_mod_A(spec, g) == 7
    assert order_mod_A(spec, element_d(spec)) == 7
    assert order_mod_A(spec, element_of({"t2": [Fraction(1, 5)]})) == 5
    assert order_mod_A(spec, AmbientElement()) == 1


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
        g = element_of(blocks)
        order = order_mod_A(spec, g)
        assert order >= 1
        accum = AmbientElement()
        for k in range(1, order + 1):
            accum = accum + g
            inside = accum.outside_regulator(spec) is None
            assert inside == (k == order)


def test_purity_oracle_and_witness():
    # lcm of the others is 2, so the block with m = 4 sits impurely
    spec = CRQGroupSpec(
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
@given(st.lists(st.integers(1, 72), min_size=1, max_size=8))
def test_purity_and_condition_m_match_brute_force_lcm(ms):
    # one type per drawn value, with distinct ids; the values may repeat
    spec = CRQGroupSpec(make_type(f"t{i}", [29], 1, m) for i, m in enumerate(ms))
    for i, m in enumerate(ms):
        rest = math.lcm(*ms[:i], *ms[i + 1 :])
        assert purity_oracle(spec, f"t{i}") == (rest % m == 0)
        witness = purity_witness(spec, f"t{i}")
        assert (witness is None) == (rest % m == 0)
        if witness is not None:
            assert witness[1] == spec.n // rest
    # condition_m_check keys its values by position, so repeated values count apart
    brute = all(math.lcm(*ms[:i], *ms[i + 1 :]) % m == 0 for i, m in enumerate(ms))
    assert condition_m_check(dict(enumerate(ms))) == brute


def test_fractional_multiple_of_basis_never_in_G():
    # only multiples of d may have denominators touching m
    rng = random.Random(31)
    spec = two_block_spec()
    for _ in range(40):
        num = rng.randrange(1, 7)
        g = element_of({"t1": [0, Fraction(num, 7)]})
        assert in_G(spec, g) is None


def test_element_json_round_trip():
    g = element_of({"t1": [Fraction(2, 7), 0], "t2": [Fraction(-3, 5)]})
    assert element_from_dict({"t1": ["2/7", "0"], "t2": ["-3/5"]}) == g
    assert element_from_dict({}) == AmbientElement()
    parsed = element_from_dict({"t1": [3, "-2/7"]})
    assert parsed == element_of({"t1": [3, Fraction(-2, 7)]})
    with pytest.raises(ValueError):
        element_from_dict({"t1": "nope"})
    with pytest.raises(ValueError):
        element_from_dict([1, 2])
    # a dict passed in may have keys of any type; the constructor refuses them
    with pytest.raises(ValueError, match="^block 1 needs a str id and int size and denominator$"):
        element_from_dict({1: ["1"]})


@pytest.mark.parametrize("coord", [1.5, True, None, [1], "1.5", "x", " 3", "3 "])
def test_element_from_dict_rejects_non_fraction_coordinates(coord):
    with pytest.raises(ValueError):
        element_from_dict({"t1": [coord, "0"]})
