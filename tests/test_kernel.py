"""The integer block kernel against a Fraction reference, the closure oracle
against its product-based reference, and the coordinate language.

Blocks keep one denominator and integer numerators per block; the kernel
properties rebuild the same facts from plain Fractions in `reference.py`, and
the oracle properties compare its cube slices with `build_product`.  The
searches are derandomized with a fixed example count, so a run is repeatable.
"""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crqmult.elements import AmbientElement, Blocks, element_from_dict
from crqmult.groups import GenBounds, random_spec
from crqmult.numth import PrimeSet
from crqmult.tables import (
    MultTable,
    _unscaled_border,
    build_product,
    closure_oracle,
    decide_membership,
    table_from_dict,
    table_to_dict,
)
from reference import (
    basis_vector,
    blocks_of,
    element_d,
    element_of,
    fraction_block,
    fraction_matrix,
    ref_closure_oracle,
    ref_combine,
    ref_decide,
    ref_drop_zero,
    ref_outside_regulator,
    ref_scale,
    support,
    table_of,
)

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)
CONTAINERS = [AmbientElement, MultTable]  # depths 1 and 3
RANKS = {"t1": 1, "t2": 2, "t3": 3}
DENOMINATORS = (1, 2, 3, 4, 5, 7, 9, 12, 25, 49)
SCALARS = st.integers(-12, 12)


def nest(leaves, size, depth):
    for _ in range(depth - 1):
        leaves = [leaves[i : i + size] for i in range(0, len(leaves), size)]
    return leaves


def flat(blocks):
    """Reference form of a container: flat Fraction leaves per type id."""
    return {tid: [Fraction(x, den) for x in nums] for tid, _, den, nums in blocks.parts}


def build(cls, ref, ranks):
    nested = {tid: nest(leaves, ranks[tid], cls.depth) for tid, leaves in ref.items()}
    return blocks_of(cls, nested)


def reference_blocks(draw, ranks, depth, dens=DENOMINATORS):
    out = {}
    for tid in sorted(draw(st.lists(st.sampled_from(sorted(ranks)), unique=True))):
        size = ranks[tid] ** depth
        nums = draw(st.lists(st.integers(-20, 20), min_size=size, max_size=size))
        below = draw(st.lists(st.sampled_from(dens), min_size=size, max_size=size))
        out[tid] = [Fraction(x, y) for x, y in zip(nums, below)]
    return out


@pytest.mark.parametrize("cls", CONTAINERS)
@PROPERTY
@given(data=st.data())
def test_arithmetic_matches_fractions(cls, data):
    a = reference_blocks(data.draw, RANKS, cls.depth)
    b = reference_blocks(data.draw, RANKS, cls.depth)
    # blocks of b that cancel blocks of a exactly
    for tid in data.draw(st.lists(st.sampled_from(sorted(a)), unique=True)) if a else ():
        b[tid] = [-x for x in a[tid]]
    q = data.draw(SCALARS)
    A, B = build(cls, a, RANKS), build(cls, b, RANKS)

    assert flat(A) == ref_drop_zero(a) and support(A) == tuple(sorted(ref_drop_zero(a)))
    assert flat(A + B) == ref_combine(a, b, 1)
    assert flat(A - B) == ref_combine(a, b, -1)
    assert flat(q * A) == flat(A * q) == ref_scale(a, q)
    assert flat(-A) == ref_scale(a, -1)
    assert (A + B) - B == A and hash((A + B) - B) == hash(A) == hash((A.parts,))
    assert (A == B) == (ref_drop_zero(a) == ref_drop_zero(b))
    assert (A - A).parts == () and (0 * A).parts == ()


def one_block(cls, tid, size):
    """Container whose only block, of tid, has the given size and all coordinates 1."""
    return cls([(tid, size, 1, [1] * size**cls.depth)])


@pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
@pytest.mark.parametrize("cls", CONTAINERS)
def test_a_shared_block_of_another_size_is_refused(cls, op):
    mine = one_block(cls, "t1", 1) + one_block(cls, "t2", 2)
    with pytest.raises(ValueError, match="block 't2' has mismatched sizes 2 and 3"):
        op(mine, one_block(cls, "t2", 3))


@pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
@pytest.mark.parametrize(
    "left, right", [CONTAINERS, CONTAINERS[::-1]], ids=["element-table", "table-element"]
)
def test_containers_of_two_kinds_are_not_combined(left, right, op):
    with pytest.raises(TypeError):
        op(one_block(left, "t1", 1), one_block(right, "t1", 1))


@pytest.mark.parametrize("cls", CONTAINERS)
def test_the_constructor_keeps_the_denominator_positive(cls):
    nums = [2, 3] + [0] * (2**cls.depth - 2)
    b = cls([("t2", 2, -6, nums)])
    assert b == cls([("t2", 2, 6, [-x for x in nums])])
    assert flat(b) == {"t2": [Fraction(x, -6) for x in nums]}
    assert b + b == 2 * b
    assert [den for _, _, den, _ in (-b).parts] == [6]
    for zero in (nums, [0] * len(nums)):
        with pytest.raises(ValueError, match="block 't2' has denominator 0"):
            cls([("t1", 1, 1, [1]), ("t2", 2, 0, zero)])


@st.composite
def valid_specs(draw):
    return random_spec(draw(st.integers(0, 10**4)), GenBounds(3, 3, 36))


def spec_denominators(spec):
    """Denominators that are often integral at some type and often not."""
    inf = sorted({p for d in spec.types for p in d.inf_primes})
    return tuple(inf) + tuple(p * p for p in inf[:2]) + (1, 1, 2, 3, 5, 7)


@pytest.mark.parametrize("cls", CONTAINERS)
@PROPERTY
@given(spec=valid_specs(), data=st.data())
def test_outside_regulator_matches_fractions(cls, spec, data):
    ranks = {d.id: d.rank for d in spec.types}
    a = reference_blocks(data.draw, ranks, cls.depth, spec_denominators(spec))
    assert build(cls, a, ranks).outside_regulator(spec) == ref_outside_regulator(spec, a)


def member_cubes(draw, spec, alpha):
    """Flat cubes of a member with witness alpha: integral, m-scaled borders,
    m^2-scaled corners, and alpha times the corner generator m / s on slot 0
    of each corner.  Alpha 0 gives a doubly scaled table."""
    cubes = {}
    for d in spec.types:
        r = d.rank
        nums = draw(st.lists(st.integers(-9, 9), min_size=r**3, max_size=r**3))
        dens = draw(st.lists(st.sampled_from((1, *d.inf_primes)), min_size=r**3, max_size=r**3))
        cube = [Fraction(x, y) for x, y in zip(nums, dens)]
        for leaf in range(r**3):
            i, j = divmod(leaf // r, r)
            cube[leaf] *= d.m * d.m if (i, j) == (0, 0) else d.m if 0 in (i, j) else 1
        if d.m > 1:
            cube[0] += d.m * (alpha * pow(d.s, -1, d.m) % d.m)
        cubes[d.id] = cube
    return cubes


@st.composite
def tables_near_the_filtration(draw, spec):
    """Flat cubes with integral, m-scaled borders and m^2-scaled corners, then
    up to two changes: a coordinate made fractional, unscaled, or m-scaled on a
    corner, an unscaled column entry (j, 0) with j >= 1, or two or more unscaled
    border entries of one type.

    Slot 0 of each corner carries one common witness alpha, as alpha times the
    corner generator m / s; the "witness" change moves one type off it.
    """
    cubes = member_cubes(draw, spec, draw(st.integers(0, 10**3)))
    for _ in range(draw(st.integers(0, 2))):
        d = draw(st.sampled_from(spec.types))
        kinds = ["fraction", "unscaled", "corner", "witness", "column", "borders"]
        kind = draw(st.sampled_from(kinds))
        r = d.rank
        if kind in ("column", "borders"):
            if d.m == 1 or r == 1:
                continue
            border = [(0, j) for j in range(r)] + [(j, 0) for j in range(1, r)]
            entries = (
                [(draw(st.integers(1, r - 1)), 0)]
                if kind == "column"
                else draw(st.lists(st.sampled_from(border), min_size=2, unique=True))
            )
            for i, j in entries:
                # m-scaled before, so a step that m does not divide leaves it unscaled
                leaf = (i * r + j) * r + draw(st.integers(0, r - 1))
                cubes[d.id][leaf] += draw(st.integers(1, d.m - 1))
        elif kind == "witness":
            cubes[d.id][0] += d.m * draw(st.integers(1, 9))
        elif kind == "corner" and d.rank > 1:
            cubes[d.id][draw(st.integers(1, d.rank - 1))] = Fraction(d.m * draw(st.integers(1, 9)))
        else:
            leaf = draw(st.integers(0, d.rank**3 - 1))
            value = Fraction(draw(st.integers(1, 9)))
            if kind == "fraction":
                value = cubes[d.id][leaf] + value / draw(st.sampled_from(DENOMINATORS))
            cubes[d.id][leaf] = value
    return ref_drop_zero(cubes)


@PROPERTY
@given(spec=valid_specs(), data=st.data())
def test_decision_residues_match_fractions(spec, data):
    cubes = data.draw(tables_near_the_filtration(spec))
    ranks = {d.id: d.rank for d in spec.types}
    v = decide_membership(spec, build(MultTable, cubes, ranks))
    f = v.failure
    got = (v.member, v.alpha) + ((None,) * 4 if f is None else (f.code, f.type_id, f.entry, f.detail))
    expected = ref_decide(spec, cubes)
    assert got == (expected if not expected[0] else expected[:2] + (None,) * 4)


@st.composite
def wide_specs(draw):
    """Specs past the acceptance bounds: up to 6 types, ranks up to 4, n <= 2000."""
    bounds = GenBounds(6, 4, draw(st.sampled_from((36, 2000))))
    spec = random_spec(draw(st.integers(0, 2**32)), bounds)
    assume(spec.n <= 2000)
    return spec


@st.composite
def tables_around_the_members(draw, spec):
    """Flat cubes of a member or a doubly scaled table, then at most one
    coordinate of one type made non-integral or unscaled on a border entry,
    a corner slot or an interior entry."""
    alpha = draw(st.integers(0, spec.n - 1)) if draw(st.booleans()) else 0
    cubes = member_cubes(draw, spec, alpha)
    kind = draw(st.sampled_from(["none", "fraction", "unscaled"]))
    if kind != "none":
        d = draw(st.sampled_from(spec.types))
        r = d.rank
        place = draw(st.sampled_from(["border", "corner", "interior"]))
        if place == "corner" or r == 1:
            entry = (0, 0)
        elif place == "border":
            j = draw(st.integers(1, r - 1))
            entry = draw(st.sampled_from([(0, j), (j, 0)]))
        else:
            entry = (draw(st.integers(1, r - 1)), draw(st.integers(1, r - 1)))
        leaf = (entry[0] * r + entry[1]) * r + draw(st.integers(0, r - 1))
        step = Fraction(draw(st.integers(1, 9)))
        if kind == "fraction":
            step /= draw(st.sampled_from(DENOMINATORS))
        cubes[d.id][leaf] += step
    return ref_drop_zero(cubes)


ORACLE_PROPERTY = settings(derandomize=True, max_examples=80, deadline=None)


@ORACLE_PROPERTY
@given(spec=wide_specs(), data=st.data())
def test_oracle_agrees_with_reference_and_decision(spec, data):
    cubes = data.draw(tables_around_the_members(spec))
    table = build(MultTable, cubes, {d.id: d.rank for d in spec.types})
    closed = closure_oracle(spec, table)
    assert closed == ref_closure_oracle(spec, table) == decide_membership(spec, table).member


@ORACLE_PROPERTY
@given(spec=wide_specs(), data=st.data())
def test_oracle_products_are_cube_slices(spec, data):
    ranks = {d.id: d.rank for d in spec.types}
    table = build(MultTable, reference_blocks(data.draw, ranks, 3, spec_denominators(spec)), ranks)
    product = build_product(spec, table)
    d = element_d(spec)
    # the oracle's d*d is (s/m)^2 times the corner T[0][0] of each stored clipped cube
    square = {}
    for c in spec.clipped:
        part = table.part(c.id)
        if part:
            size, den, cube = part
            square[c.id] = [Fraction(c.s, c.m) ** 2 * Fraction(x, den) for x in cube[:size]]
    assert ref_drop_zero(square) == flat(product(d, d))
    for c in spec.clipped:
        r = c.rank
        part = table.part(c.id)
        # the border products are over the block denominator times m
        den, cube = (part[1] * c.m, part[2]) if part else (1, [0] * r**3)
        # row 0 is one run of the stored cube, and column entry j the run at j * r * r
        row = cube[: r * r]
        column = [cube[j * r * r : j * r * r + r] for j in range(r)]
        assert len(cube) == r**3
        assert len(row) == r * r and len(column) == r and all(len(e) == r for e in column)
        border_leaves = []
        for j in range(r):
            e = basis_vector(c.id, r, j)
            # the oracle tests s times each stored slice over den
            sides = ((row[j * r : (j + 1) * r], product(d, e)), (column[j], product(e, d)))
            for nums, value in sides:
                got = [Fraction(c.s * x, den) for x in nums]
                assert got == flat(value).get(c.id, [0] * r)
                border_leaves += [int(v * den / c.s) for v in flat(value).get(c.id, [0] * r)]
        # the border test's one gcd per run reads exactly the leaves of those products
        for q in (2, 3, 4, c.m, den):
            assert (_unscaled_border(q, r, cube) is None) == (math.gcd(q, *border_leaves) == q)


# Outcomes checked at the commit before the integer kernel: None is a refusal.
PINNED_COORDINATES = [
    ("+1", None),
    (" 1", None),
    ("1_0", None),
    ("١", None),  # ARABIC-INDIC DIGIT ONE
    ("1.5", None),
    ("0x1", None),
    (True, None),
    ("1/0", None),
    ("-0/7", Fraction(0)),
    ("007/010", Fraction(7, 10)),
    # zeros, which skip the regex; checked at the commit before that path
    ("0", Fraction(0)),
    ("00", Fraction(0)),
    ("-0", Fraction(0)),
    ("0/1", Fraction(0)),
    (0, Fraction(0)),
    (" 0", None),
    ("0/0", None),
    ("٠", None),  # ARABIC-INDIC DIGIT ZERO
]


@pytest.mark.parametrize("coord, value", PINNED_COORDINATES)
def test_coordinate_language_is_pinned(coord, value):
    table_doc = {"blocks": {"t1": [[[coord, 1], [0, 0]], [[0, 0], [0, 0]]]}}
    element_doc = {"t1": [coord, 1]}
    if value is None:
        with pytest.raises(ValueError):
            table_from_dict(table_doc)
        with pytest.raises(ValueError):
            element_from_dict(element_doc)
    else:
        assert fraction_matrix(table_from_dict(table_doc), "t1", 2)[0][0] == (value, 1)
        assert fraction_block(element_from_dict(element_doc), "t1") == (value, 1)


@st.composite
def json_coordinate(draw, strings_only):
    """A JSON coordinate and its value: an int, "0", or a signed, zero-padded fraction string."""
    kinds = ["zero", "integer", "fraction"] + ([] if strings_only else ["int"])
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return "0", Fraction(0)
    if kind == "int":
        value = draw(st.integers(-(10**12), 10**12))
        return value, Fraction(value)
    sign = draw(st.sampled_from(["", "-"]))
    num = draw(st.integers(0, 60))
    text = sign + "0" * draw(st.integers(0, 2)) + str(num)
    if kind == "integer":
        return text, Fraction(-num if sign else num)
    den = draw(st.integers(1, 60))
    text += "/" + "0" * draw(st.integers(0, 2)) + str(den)
    return text, Fraction(-num if sign else num, den)


@st.composite
def json_blocks(draw, depth):
    """Per type id, a block as JSON (nested) and as Fractions (nested alike)."""
    docs, values = {}, {}
    for tid in draw(st.lists(st.sampled_from(sorted(RANKS)), unique=True)):
        r = RANKS[tid]
        # a block of strings only takes the parser's one-match path
        size = r**depth
        coords = draw(st.lists(json_coordinate(draw(st.booleans())), min_size=size, max_size=size))
        docs[tid] = nest([c for c, _ in coords], r, depth)
        values[tid] = nest([v for _, v in coords], r, depth)
    return docs, values


@PROPERTY
@given(blocks=json_blocks(3))
def test_table_parser_reads_the_values_it_is_given(blocks):
    docs, values = blocks
    table = table_from_dict({"blocks": docs})
    assert table == table_of(values)
    assert table_from_dict(table_to_dict(table)) == table


@PROPERTY
@given(blocks=json_blocks(1))
def test_element_parser_reads_the_values_it_is_given(blocks):
    docs, values = blocks
    assert element_from_dict(docs) == element_of(values)


def test_records_of_different_classes_never_compare_equal():
    # every one of these holds the single field value (), so all four hash alike
    zeros = [Blocks(()), AmbientElement(), MultTable(), PrimeSet(())]
    for i, a in enumerate(zeros):
        for b in zeros[i + 1 :]:
            assert a != b and not a == b
            assert hash(a) == hash(b) == hash(((),))
    assert Blocks.__match_args__ == ("parts",) and AmbientElement.depth == 1
