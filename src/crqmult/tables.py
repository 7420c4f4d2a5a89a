"""Product tables over the regulator basis and the ring-multiplication decision.

A table records, per critical type, the square matrix of basis products; the
entry at (i, j) is the coordinate vector of the product of basis vectors i and
j of that type.  Products across distinct types vanish and are not stored.

Two independent routes decide whether a table defines a multiplication on the
whole group: `decide_membership` works through border scaling and corner
congruences, `closure_oracle` evaluates the induced bilinear map on the group
generators.  Both must always agree.
"""

from __future__ import annotations

import math
import random

from ._record import record
from .elements import (
    AmbientElement,
    Blocks,
    coords_from_json,
    format_coord,
    in_G,
)
from .groups import CRQGroupSpec, CriticalTypeData, ensure_valid
from .numth import crt_solve, is_p_integer, mod_inverse

# true only for type checkers, so typing stays unloaded at run time
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Mapping, Optional, Sequence

    from .elements import Part, Scalar

__all__ = [
    "MultTable",
    "MembershipFailure",
    "MembershipVerdict",
    "single_entry_table",
    "generator_x",
    "in_M2",
    "decide_membership",
    "closure_oracle",
    "rescale_slot0_coords",
    "random_r_fraction",
    "sample_m2_table",
    "sample_member_table",
    "sample_broken_corner_table",
    "sample_unscaled_border_table",
    "table_to_dict",
    "table_from_dict",
]

# sampled coordinates: |numerator| <= _NUM_BOUND, listed primes up to _MAX_POWER in the
# denominator, and the shares of nonzero entries and of nonzero coordinates in them
_NUM_BOUND = 9
_MAX_POWER = 2
_ENTRY_DENSITY = 0.7
_COORD_DENSITY = 0.8


class MultTable(Blocks):
    """Per-type matrices of basis-product coordinate vectors, zero blocks dropped."""

    depth = 3


@record
class MembershipFailure:
    """First failed condition of a membership decision."""

    code: str
    type_id: Optional[str] = None
    entry: Optional[tuple[int, int]] = None
    detail: str = ""


@record
class MembershipVerdict:
    """Outcome of the membership decision; alpha is (residue, regulator index)."""

    member: bool
    alpha: Optional[tuple[int, int]] = None
    failure: Optional[MembershipFailure] = None


def _single_entry(rank: int, entry: tuple[int, int], slot: int, num: int) -> list[int]:
    nums = [0] * rank**3
    nums[(entry[0] * rank + entry[1]) * rank + slot] = num
    return nums


def single_entry_table(
    tid: str, rank: int, entry: tuple[int, int], slot: int, value: Scalar
) -> MultTable:
    """Table whose only nonzero coordinate is `value`, at `slot` of one entry of one block."""
    nums = _single_entry(rank, entry, slot, value.numerator)
    return MultTable.from_parts({tid: (rank, value.denominator, nums)})


def generator_x(spec: CRQGroupSpec, inverses: Optional[Mapping[str, int]] = None) -> MultTable:
    """Distinguished coset generator: m * s^{-1} on slot 0 of each clipped corner.

    A custom inverse of s modulo m may be supplied per type; any choice in the
    same residue class yields a table in the same coset over the scaled part.
    """
    ensure_valid(spec)
    blocks = {}
    for d in spec.clipped:
        if inverses is not None and d.id in inverses:
            inv = inverses[d.id]
            if (d.s * inv - 1) % d.m != 0:
                raise ValueError(f"{inv} does not invert {d.s} modulo {d.m}")
        else:
            inv = mod_inverse(d.s, d.m)
        blocks[d.id] = (d.rank, 1, _single_entry(d.rank, (0, 0), 0, d.m * inv))
    return MultTable.from_parts(blocks)


def _entries_in_A(spec: CRQGroupSpec, table: MultTable) -> Optional[MembershipFailure]:
    found = table.outside_regulator(spec)
    if found is None:
        return None
    tid, leaf = found
    size, den, nums = table.part(tid)
    entry, slot = divmod(leaf, size)
    i, j = divmod(entry, size)
    detail = f"coordinate {format_coord(nums[leaf], den)} is not integral at this type"
    return MembershipFailure("ENTRY_OUTSIDE_A", tid, (i, j), detail)


# Once every entry is integral at its type, the block denominator is a product
# of the type's infinite primes and so a unit modulo m: a coordinate x / den
# is divisible by a power of m exactly when its numerator x is.


def _entry_scaled(nums: Sequence[int], start: int, size: int, modulus: int) -> bool:
    return not any(x % modulus for x in nums[start : start + size])


def _unscaled_border(d: CriticalTypeData, part: Optional[Part]) -> Optional[tuple[int, int]]:
    """First entry of row 0 or column 0 that is not m-scaled, or None.

    Entries are visited as (0, j) then (j, 0) for increasing j, and must
    already be integral at the type.
    """
    if part is None:
        return None
    size, _, nums = part
    for j in range(size):
        if not _entry_scaled(nums, j * size, size, d.m):
            return 0, j
        if not _entry_scaled(nums, j * size * size, size, d.m):
            return j, 0
    return None


def in_M2(spec: CRQGroupSpec, table: MultTable) -> bool:
    """Entries in the regulator, clipped borders m-scaled, clipped corners m^2-scaled.

    Those are exactly the members of witness 0: the witness is 0 modulo every
    m when each corner's slot 0 is m^2-scaled, and the decision already
    requires that of the other corner slots.
    """
    verdict = decide_membership(spec, table)
    return verdict.member and verdict.alpha[0] == 0


def decide_membership(spec: CRQGroupSpec, table: MultTable) -> MembershipVerdict:
    """Decide whether the table defines a multiplication on the whole group.

    The table must lie in the group generated by the distinguished corner
    table and the doubly scaled tables: borders of clipped types m-scaled,
    corner entries congruent to a common multiple of the corner generator.
    The witness alpha is that multiple, reported modulo the regulator index.
    """
    ensure_valid(spec)
    table.check_shape(spec)
    failure = _entries_in_A(spec, table)
    if failure is not None:
        return MembershipVerdict(False, None, failure)
    congruences = []
    for d in spec.clipped:
        part = table.part(d.id)
        entry = _unscaled_border(d, part)
        if entry is not None:
            return MembershipVerdict(
                False,
                None,
                MembershipFailure(
                    "BORDER_NOT_SCALED",
                    d.id,
                    entry,
                    f"entry is not divisible by m = {d.m}",
                ),
            )
        if part is None:
            congruences.append((0, d.m))
            continue
        _, den, nums = part
        # the reduced corner is the corner over m; its residues are x / m times 1 / den
        for slot in range(1, d.rank):
            if nums[slot] % (d.m * d.m):
                return MembershipVerdict(
                    False,
                    None,
                    MembershipFailure(
                        "CORNER_RESIDUE",
                        d.id,
                        (0, 0),
                        f"slot {slot} of the reduced corner is nonzero modulo {d.m}",
                    ),
                )
        alpha_t = nums[0] // d.m * mod_inverse(den, d.m) * d.s % d.m
        congruences.append((alpha_t, d.m))
    solution = crt_solve(congruences)
    if solution is None:
        return MembershipVerdict(
            False,
            None,
            MembershipFailure(
                "ALPHA_INCONSISTENT",
                None,
                None,
                "corner congruences admit no common witness",
            ),
        )
    return MembershipVerdict(True, (solution[0] % spec.n, spec.n), None)


# Not exported: only perfbench's tracer, which looks it up by name, and the tests use it.
def build_product(
    spec: CRQGroupSpec, table: MultTable
) -> Callable[[AmbientElement, AmbientElement], AmbientElement]:
    """Bilinear evaluator induced by the table; cross-type terms vanish."""
    ensure_valid(spec)
    table.check_shape(spec)
    cubes = {tid: (den, nums) for tid, _, den, nums in table.parts}

    def product(g: AmbientElement, h: AmbientElement) -> AmbientElement:
        g.check_shape(spec)
        h.check_shape(spec)
        out: dict[str, tuple[int, int, list[int]]] = {}
        for tid, size, g_den, g_nums in g.parts:
            h_part = h.part(tid)
            cube = cubes.get(tid)
            if h_part is None or cube is None:
                continue
            _, h_den, h_nums = h_part
            t_den, t_nums = cube
            acc = [0] * size
            for i, gi in enumerate(g_nums):
                if not gi:
                    continue
                for j, hj in enumerate(h_nums):
                    if not hj:
                        continue
                    coeff = gi * hj
                    start = (i * size + j) * size
                    for k, c in enumerate(t_nums[start : start + size]):
                        if c:
                            acc[k] += coeff * c
            out[tid] = (size, g_den * h_den * t_den, acc)
        return AmbientElement.from_parts(out)

    return product


def _generator_products(spec: CRQGroupSpec, table: MultTable) -> tuple[AmbientElement, Blocks]:
    """The square of the distinguished generator d, and its border products.

    d is s/m times basis vector 0 on each clipped type and vanishes
    elsewhere, so its products are slices of the stored cube T:
    d*d = (s/m)^2 T[0][0], d*e_j = (s/m) T[0][j] and e_j*d = (s/m) T[j][0].
    The border products of a type form one block of leaves d*e_j then e_j*d
    for each j, so leaf (2j + side) * rank + slot names the product and slot.
    """
    square = {}
    border = {}
    for d in spec.clipped:
        part = table.part(d.id)
        if part is None:
            continue
        size, den, nums = part
        square[d.id] = (size, den * d.m * d.m, [d.s * d.s * x for x in nums[:size]])
        leaves = []
        for j in range(size):
            leaves += nums[j * size : (j + 1) * size]
            leaves += nums[j * size * size : (j * size + 1) * size]
        border[d.id] = (size, den * d.m, [d.s * x for x in leaves])
    return AmbientElement.from_parts(square), Blocks.from_parts(border)


def closure_oracle(spec: CRQGroupSpec, table: MultTable) -> bool:
    """Check closure of the induced bilinear map directly on generators.

    True when all basis products are integral, the square of the
    distinguished generator lands back in the group, and its products with
    every basis vector land in the regulator.  Products of d with a basis
    vector of another type vanish, so only the clipped types the table
    stores are read.
    """
    ensure_valid(spec)
    table.check_shape(spec)
    if _entries_in_A(spec, table) is not None:
        return False
    square, border = _generator_products(spec, table)
    if in_G(spec, square) is None:
        return False
    return border.outside_regulator(spec) is None


def rescale_slot0_coords(
    spec: CRQGroupSpec, table: MultTable, units: Mapping[str, Scalar]
) -> MultTable:
    """Rewrite entry coordinates after rescaling slot-0 basis vectors by units.

    Each unit must be invertible in the localization of its type, so the
    rescaled vectors generate the same regulator block.  The slot-0
    coordinate is divided by the unit (coordinates over the new basis);
    reciprocal units undo that.
    """
    from fractions import Fraction

    ensure_valid(spec)
    table.check_shape(spec)
    factors: dict[str, tuple[int, int]] = {}
    for tid, raw in units.items():
        data = spec.data_for(tid)
        w = Fraction(raw)
        if w == 0:
            raise ValueError(f"unit for type {tid!r} must be nonzero")
        if not (
            is_p_integer(w.numerator, data.inf_primes)
            and is_p_integer(w.denominator, data.inf_primes)
        ):
            raise ValueError(f"{w} is not invertible in the localization of type {tid!r}")
        # slot 0 takes the factor 1 / w = q / p; put over |p|, which keeps the block
        # denominator positive, that is q * sign(p) on slot 0 and |p| on every other slot
        sign = 1 if w > 0 else -1
        factors[tid] = (sign * w.denominator, sign * w.numerator)
    out = {}
    for tid, size, den, nums in table.parts:
        if tid in factors:
            up, down = factors[tid]
            den = den * down
            nums = [x * (down if i % size else up) for i, x in enumerate(nums)]
        out[tid] = (size, den, nums)
    return MultTable.from_parts(out)


def random_r_fraction(rng: random.Random, inf_primes) -> tuple[int, int]:
    """Random element of the localization as (numerator, denominator), not reduced:
    an integer over a product of listed primes."""
    num = rng.randint(-_NUM_BOUND, _NUM_BOUND)
    den = 1
    inf = tuple(inf_primes)
    if inf and rng.random() < 0.5:
        den = rng.choice(inf) ** rng.randint(1, _MAX_POWER)
        if len(inf) > 1 and rng.random() < 0.3:
            den *= rng.choice(inf)
    return num, den


def _random_entry(rng: random.Random, rank: int, inf: tuple[int, ...]) -> list[tuple[int, int]]:
    if rng.random() >= _ENTRY_DENSITY:
        return [(0, 1)] * rank
    return [
        random_r_fraction(rng, inf) if rng.random() < _COORD_DENSITY else (0, 1)
        for _ in range(rank)
    ]


def sample_m2_table(spec: CRQGroupSpec, rng: random.Random) -> MultTable:
    """Random table with scaled borders and doubly scaled corners."""
    ensure_valid(spec)
    coords = {}
    for d in spec.types:
        inf = tuple(d.inf_primes)
        nums: list[int] = []
        dens: list[int] = []
        for i in range(d.rank):
            for j in range(d.rank):
                if d.m == 1 or (i and j):
                    scale = 1
                elif i or j:
                    scale = d.m
                else:
                    scale = d.m * d.m
                for num, den in _random_entry(rng, d.rank, inf):
                    nums.append(scale * num)
                    dens.append(den)
        coords[d.id] = (d.rank, nums, dens)
    return MultTable.from_coords(coords)


def sample_member_table(spec: CRQGroupSpec, rng: random.Random) -> tuple[MultTable, int]:
    """Random member table: a multiple of the corner generator plus scaled noise."""
    alpha = rng.randrange(1, spec.n) if spec.n > 1 else 0
    return alpha * generator_x(spec) + sample_m2_table(spec, rng), alpha


def sample_broken_corner_table(spec: CRQGroupSpec, rng: random.Random) -> Optional[MultTable]:
    """Member table perturbed inside the scaled borders so no witness exists.

    Returns None when every invariant equals 1, in which case every integral
    table is a member and this stratum is empty.
    """
    clipped = spec.clipped
    if not clipped:
        return None
    base, _ = sample_member_table(spec, rng)
    strategies = []
    pairs = [
        (a, b)
        for i, a in enumerate(clipped)
        for b in clipped[i + 1 :]
        if math.gcd(a.m, b.m) > 1
    ]
    if pairs:
        strategies.append("pair")
    wide = [d for d in clipped if d.rank >= 2]
    if wide:
        strategies.append("offslot")
    if not strategies:
        return None
    if rng.choice(strategies) == "pair":
        # shifting one corner by m moves its witness by s, which the partner
        # cannot match modulo their common divisor
        target = rng.choice(rng.choice(pairs))
        slot = 0
    else:
        target = rng.choice(wide)
        slot = rng.randrange(1, target.rank)
    return base + single_entry_table(target.id, target.rank, (0, 0), slot, target.m)


def sample_unscaled_border_table(spec: CRQGroupSpec, rng: random.Random) -> Optional[MultTable]:
    """Integral table with one unscaled border entry of a clipped type."""
    if not spec.clipped:
        return None
    base = sample_m2_table(spec, rng)
    target = rng.choice(spec.clipped)
    j = rng.randrange(target.rank)
    position = (0, j) if rng.random() < 0.5 else (j, 0)
    slot = rng.randrange(target.rank)
    return base + single_entry_table(target.id, target.rank, position, slot, 1)


def table_to_dict(table: MultTable) -> dict:
    """JSON-ready form: nested lists of reduced fraction strings per block."""
    out = {}
    for tid, size, den, nums in table.parts:
        coords = [format_coord(x, den) for x in nums]
        vecs = [coords[k : k + size] for k in range(0, len(coords), size)]
        out[tid] = [vecs[k : k + size] for k in range(0, len(vecs), size)]
    return {"blocks": out}


def table_from_dict(data: object) -> MultTable:
    """Parse the JSON form; coordinates are integers or fraction strings."""
    if not isinstance(data, dict) or set(data) != {"blocks"}:
        raise ValueError("table document must be an object with a single 'blocks' key")
    raw = data["blocks"]
    if not isinstance(raw, dict):
        raise ValueError("'blocks' must map type ids to matrices")
    coords = {}
    ragged = []
    for tid, mat in raw.items():
        if not isinstance(tid, str):
            raise ValueError("block keys must be type ids")
        if not isinstance(mat, list) or not all(isinstance(row, list) for row in mat):
            raise ValueError(f"block {tid!r} must be a matrix")
        size = len(mat)
        nums: list[int] = []
        dens: list[int] = []
        wide = True
        for row in mat:
            wide = wide and len(row) == size
            for vec in row:
                coords_from_json(vec, tid, nums, dens)
                wide = wide and len(vec) == size
        if not wide:
            ragged.append(tid)
        coords[tid] = (size, nums, dens)
    return MultTable.from_coords(coords, ragged)
