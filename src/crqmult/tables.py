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
    common_form,
    coords_from_json,
    format_coord,
    in_G,
)
from .groups import CRQGroupSpec, CriticalTypeData, ensure_valid
from .numth import crt_solve, mod_inverse

# true only for type checkers, so typing stays unloaded at run time
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Optional, Sequence

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
    tid: str, rank: int, entry: tuple[int, int], slot: int, value: int
) -> MultTable:
    """Table whose only nonzero coordinate is `value`, at `slot` of one entry of one block."""
    return MultTable([(tid, rank, 1, _single_entry(rank, entry, slot, value))])


def corner_table(
    types: Sequence[CriticalTypeData], value: Callable[[CriticalTypeData], int]
) -> MultTable:
    """Table holding value(d) on slot 0 of the corner entry (0, 0) of each type d."""
    return MultTable((d.id, d.rank, 1, _single_entry(d.rank, (0, 0), 0, value(d))) for d in types)


def generator_x(spec: CRQGroupSpec) -> MultTable:
    """Distinguished coset generator: m * s^{-1} on slot 0 of each clipped corner."""
    ensure_valid(spec)
    return corner_table(spec.clipped, lambda d: d.m * mod_inverse(d.s, d.m))


def _entries_in_A(spec: CRQGroupSpec, table: MultTable) -> Optional[MembershipFailure]:
    """MultTable.check, then the first coordinate outside the regulator as a failure."""
    MultTable.check(spec, table)
    found = table.outside_regulator(spec)
    if found is None:
        return None
    tid, leaf = found
    size, den, nums = table.part(tid)
    i, j = divmod(leaf // size, size)
    detail = f"coordinate {format_coord(nums[leaf], den)} is not integral at this type"
    return MembershipFailure("ENTRY_OUTSIDE_A", tid, (i, j), detail)


# The constructor keeps each block reduced, so once every entry is integral at its type the
# block denominator is a product of the type's infinite primes and so a unit modulo m:
# a coordinate x / den is divisible by a power of m exactly when its numerator x is.


def _unscaled_border(m: int, size: int, nums: Sequence[int]) -> Optional[tuple[int, int]]:
    """First entry of the border that is not m-scaled, visited as (0, j) then (j, 0)."""
    stride = size * size
    for j in range(size):
        if math.gcd(m, *nums[j * size : j * size + size]) != m:
            return 0, j
        if j and math.gcd(m, *nums[j * stride : j * stride + size]) != m:
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


def _refused(
    code: str, tid: Optional[str], entry: Optional[tuple[int, int]], detail: str
) -> MembershipVerdict:
    """A negative verdict that names its first failed condition."""
    return MembershipVerdict(False, None, MembershipFailure(code, tid, entry, detail))


def decide_membership(spec: CRQGroupSpec, table: MultTable) -> MembershipVerdict:
    """Decide whether the table defines a multiplication on the whole group.

    The table must lie in the group generated by the distinguished corner
    table and the doubly scaled tables: borders of clipped types m-scaled,
    corner entries congruent to a common multiple of the corner generator.
    The witness alpha is that multiple, reported modulo the regulator index.
    """
    failure = _entries_in_A(spec, table)
    if failure is not None:
        return MembershipVerdict(False, None, failure)
    congruences = []
    blocks = {tid: (size, den, nums) for tid, size, den, nums in table.parts}
    for d in spec.clipped:
        part = blocks.get(d.id)
        if part is None:
            congruences.append((0, d.m))
            continue
        size, den, nums = part
        entry = _unscaled_border(d.m, size, nums)
        if entry is not None:
            detail = f"entry is not divisible by m = {d.m}"
            return _refused("BORDER_NOT_SCALED", d.id, entry, detail)
        # the reduced corner is the corner over m; its residues are x / m times 1 / den
        for slot in range(1, d.rank):
            if nums[slot] % (d.m * d.m):
                detail = f"slot {slot} of the reduced corner is nonzero modulo {d.m}"
                return _refused("CORNER_RESIDUE", d.id, (0, 0), detail)
        alpha_t = nums[0] // d.m * mod_inverse(den, d.m) * d.s % d.m
        congruences.append((alpha_t, d.m))
    solution = crt_solve(congruences)
    if solution is None:
        detail = "corner congruences admit no common witness"
        return _refused("ALPHA_INCONSISTENT", None, None, detail)
    return MembershipVerdict(True, (solution[0] % spec.n, spec.n), None)


# Not exported: only perfbench's tracer, which looks it up by name, and the tests use it.
def build_product(
    spec: CRQGroupSpec, table: MultTable
) -> Callable[[AmbientElement, AmbientElement], AmbientElement]:
    """Bilinear evaluator induced by the table; cross-type terms vanish."""
    MultTable.check(spec, table)
    cubes = {tid: (den, nums) for tid, _, den, nums in table.parts}

    def product(g: AmbientElement, h: AmbientElement) -> AmbientElement:
        AmbientElement.check(spec, g)
        AmbientElement.check(spec, h)
        out = []
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
            out.append((tid, size, g_den * h_den * t_den, acc))
        return AmbientElement(out)

    return product


def closure_oracle(spec: CRQGroupSpec, table: MultTable) -> bool:
    """Check closure of the induced bilinear map directly on generators.

    True when all basis products are integral, the products of the
    distinguished generator d with every basis vector land in the regulator,
    and the square of d lands back in the group.
    """
    if _entries_in_A(spec, table) is not None:
        return False
    # d is s/m times basis vector 0 on each clipped type and vanishes elsewhere, so only the
    # clipped cubes T that the table stores are read, and d's products are slices of them:
    # d*d = (s/m)^2 T[0][0], d*e_j = (s/m) T[0][j] and e_j*d = (s/m) T[j][0]
    square = []
    for tid, size, den, nums in table.parts:
        d = spec.data_for(tid)
        if d.m > 1:
            # the border products are s times row 0 and column 0 of nums over den * m, so in
            # the regulator when m divides each x there: den and s are units modulo m
            if _unscaled_border(d.m, size, nums) is not None:
                return False
            square.append((tid, size, den * d.m * d.m, [d.s * d.s * x for x in nums[:size]]))
    # the border products cost O(rank^2) per type and are tested first, so only a table whose
    # borders are m-scaled can need the O(n) scan of d*d, or be refused past the scan bound
    return in_G(spec, AmbientElement(square)) is not None


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
    parts = []
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
        parts.append((d.id, d.rank, *common_form(nums, dens)))
    return MultTable(parts)


def sample_member_table(spec: CRQGroupSpec, rng: random.Random) -> tuple[MultTable, int]:
    """Random member table: a multiple of the corner generator plus scaled noise."""
    ensure_valid(spec)
    alpha = rng.randrange(1, spec.n) if spec.n > 1 else 0
    return alpha * generator_x(spec) + sample_m2_table(spec, rng), alpha


def sample_broken_corner_table(spec: CRQGroupSpec, rng: random.Random) -> Optional[MultTable]:
    """Member table perturbed inside the scaled borders so no witness exists.

    Returns None when every invariant equals 1, in which case every integral
    table is a member and this stratum is empty.
    """
    ensure_valid(spec)
    clipped = spec.clipped
    if not clipped:
        return None
    base, _ = sample_member_table(spec, rng)
    # condition M: each clipped m shares a prime with another clipped m, so pairs is never empty
    pairs = [
        (a, b)
        for i, a in enumerate(clipped)
        for b in clipped[i + 1 :]
        if math.gcd(a.m, b.m) > 1
    ]
    wide = [d for d in clipped if d.rank >= 2]
    if rng.choice(["pair", "offslot"] if wide else ["pair"]) == "pair":
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
    ensure_valid(spec)
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
    parts = {}
    ragged = []
    for tid, mat in raw.items():
        if not isinstance(mat, list) or not all(isinstance(row, list) for row in mat):
            raise ValueError(f"block {tid!r} must be a matrix")
        size = len(mat)
        leaves: list = []
        wide = True
        for row in mat:
            wide = wide and len(row) == size
            for vec in row:
                if not isinstance(vec, list):
                    coords_from_json(leaves, tid)  # a malformed coordinate before it is named first
                    raise ValueError(f"block {tid!r} has a coordinate vector that is not a list")
                leaves += vec
                wide = wide and len(vec) == size
        if not wide:
            ragged.append(tid)
        parts[tid] = (tid, size, *coords_from_json(leaves, tid))
    # refused only after every coordinate is read, so a malformed one is named first
    if ragged:
        tid = min(ragged, key=str)  # the keys of a dict passed in may be of any type
        raise ValueError(f"block {tid!r} is not {parts[tid][1]} wide at every level")
    return MultTable(parts.values())
