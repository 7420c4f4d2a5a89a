"""Ambient elements, group membership, order, and purity."""

import random
from fractions import Fraction

import pytest

from crqmult.elements import (
    AmbientElement,
    basis_element,
    element_d,
    element_from_dict,
    element_to_dict,
    in_G,
    in_g_closed_form,
    in_scaled_A_tau,
    order_mod_A,
    project,
    purity_oracle,
    purity_witness,
)
from crqmult.groups import CRQGroupSpec, CriticalTypeData, IdempotentType
from crqmult.numth import PrimeSet


def make_type(tid, primes, rank, m, s=1):
    return CriticalTypeData(IdempotentType(tid, PrimeSet.of(primes)), rank, m, s)


def two_block_spec():
    return CRQGroupSpec.of(
        [make_type("t1", [5], 2, 7, 2), make_type("t2", [2], 1, 7, 3)]
    )


def test_element_arithmetic_and_canonical_form():
    a = AmbientElement.of({"t1": [1, 2]})
    b = AmbientElement.of({"t1": [Fraction(1, 2), -2], "t2": [3]})
    s = a + b
    assert s.block("t1") == (Fraction(3, 2), Fraction(0))
    assert s.block("t2") == (Fraction(3),)
    assert (a - a).is_zero
    # zero blocks are dropped so support stays minimal
    assert (b - b).support == ()
    assert (a * Fraction(1, 3)).block("t1") == (Fraction(1, 3), Fraction(2, 3))
    assert (-a).block("t1") == (-1, -2)
    assert a.block("missing") == ()


def test_element_rejects_mixed_lengths():
    a = AmbientElement.of({"t1": [1, 2]})
    b = AmbientElement.of({"t1": [1]})
    with pytest.raises(ValueError):
        a + b


def test_element_d_standard_form():
    spec = two_block_spec()
    d = element_d(spec)
    assert d.block("t1") == (Fraction(2, 7), Fraction(0))
    assert d.block("t2") == (Fraction(3, 7),)


def test_basis_element_and_projection():
    spec = two_block_spec()
    e = basis_element(spec, "t1", 1, Fraction(5, 3))
    assert e.block("t1") == (Fraction(0), Fraction(5, 3))
    with pytest.raises(ValueError):
        basis_element(spec, "t1", 2)
    d = element_d(spec)
    assert project(spec, d, "t2").block("t2") == (Fraction(3, 7),)
    assert project(spec, d, "t2").block("t1") == ()


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
            inside = all(
                in_scaled_A_tau(spec, project(spec, accum, t.id), t.id, 1)
                for t in spec.types
            )
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
    data = element_to_dict(g)
    assert data == {"t1": ["2/7", "0"], "t2": ["-3/5"]}
    assert element_from_dict(data) == g
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
