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

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Union

from .elements import (
    AmbientElement,
    basis_element,
    check_element_shape,
    coords_from_json,
    element_d,
    in_G,
    _element_in_A,
)
from .groups import CRQGroupSpec, CriticalTypeData, ensure_valid
from .numth import crt_solve, fraction_residue, gcd, is_p_integer, mod_inverse

__all__ = [
    "MultTable",
    "MembershipFailure",
    "MembershipVerdict",
    "check_table_shape",
    "single_entry_table",
    "generator_x",
    "in_M1",
    "in_M2",
    "decide_membership",
    "build_product",
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

Scalar = Union[int, Fraction]
Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Vector, ...], ...]


def _zero_matrix(rank: int) -> Matrix:
    zero_vec = (Fraction(0),) * rank
    return tuple((zero_vec,) * rank for _ in range(rank))


@dataclass(frozen=True)
class MultTable:
    """Per-type matrices of basis-product coordinate vectors, zero blocks dropped."""

    blocks: tuple[tuple[str, Matrix], ...] = ()

    @classmethod
    def of(cls, mapping: Mapping[str, Iterable[Iterable[Iterable[Scalar]]]]) -> "MultTable":
        blocks = []
        for tid in sorted(mapping):
            rows = tuple(
                tuple(tuple(Fraction(c) for c in vec) for vec in row) for row in mapping[tid]
            )
            rank = len(rows)
            for row in rows:
                if len(row) != rank:
                    raise ValueError(f"block {tid!r} is not a square matrix")
                for vec in row:
                    if len(vec) != rank:
                        raise ValueError(
                            f"block {tid!r} has an entry of length {len(vec)}, expected {rank}"
                        )
            if any(c for row in rows for vec in row for c in vec):
                blocks.append((tid, rows))
        return cls(tuple(blocks))

    @classmethod
    def zero(cls) -> "MultTable":
        return cls(())

    def block(self, tid: str) -> Optional[Matrix]:
        for t, mat in self.blocks:
            if t == tid:
                return mat
        return None

    def matrix(self, tid: str, rank: int) -> Matrix:
        stored = self.block(tid)
        if stored is not None:
            if len(stored) != rank:
                raise ValueError(f"block {tid!r} has size {len(stored)}, expected {rank}")
            return stored
        return _zero_matrix(rank)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.blocks)

    @property
    def is_zero(self) -> bool:
        return not self.blocks

    def _combine(self, other: "MultTable", sign: int) -> "MultTable":
        out: dict[str, list[list[list[Fraction]]]] = {
            t: [[list(vec) for vec in row] for row in mat] for t, mat in self.blocks
        }
        for t, mat in other.blocks:
            if t in out:
                if len(out[t]) != len(mat):
                    raise ValueError(f"block {t!r} has mismatched sizes")
                for i, row in enumerate(mat):
                    for j, vec in enumerate(row):
                        for k, c in enumerate(vec):
                            out[t][i][j][k] += sign * c
            else:
                out[t] = [[[sign * c for c in vec] for vec in row] for row in mat]
        return MultTable.of(out)

    def __add__(self, other: "MultTable") -> "MultTable":
        return self._combine(other, 1)

    def __sub__(self, other: "MultTable") -> "MultTable":
        return self._combine(other, -1)

    def __mul__(self, scalar: Scalar) -> "MultTable":
        factor = Fraction(scalar)
        return MultTable.of(
            {
                t: [[[factor * c for c in vec] for vec in row] for row in mat]
                for t, mat in self.blocks
            }
        )

    __rmul__ = __mul__


@dataclass(frozen=True)
class MembershipFailure:
    """First failed condition of a membership decision."""

    code: str
    type_id: Optional[str] = None
    entry: Optional[tuple[int, int]] = None
    detail: str = ""


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of the membership decision; alpha is (residue, regulator index)."""

    member: bool
    alpha: Optional[tuple[int, int]] = None
    failure: Optional[MembershipFailure] = None


def check_table_shape(spec: CRQGroupSpec, table: MultTable) -> None:
    """Raise unless every stored block matches a type and its rank."""
    for tid, mat in table.blocks:
        data = spec.data_for(tid)
        if len(mat) != data.rank:
            raise ValueError(f"block {tid!r} has size {len(mat)}, expected {data.rank}")


def single_entry_table(
    tid: str, rank: int, entry: tuple[int, int], slot: int, value: Scalar
) -> MultTable:
    """Table whose only nonzero coordinate is `value`, at `slot` of one entry of one block."""
    mat = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    mat[entry[0]][entry[1]][slot] = value
    return MultTable.of({tid: mat})


def generator_x(spec: CRQGroupSpec, inverses: Optional[Mapping[str, int]] = None) -> MultTable:
    """Distinguished coset generator: m * s^{-1} on slot 0 of each clipped corner.

    A custom inverse of s modulo m may be supplied per type; any choice in the
    same residue class yields a table in the same coset over the scaled part.
    """
    ensure_valid(spec)
    table = MultTable.zero()
    for d in spec.types:
        if d.m == 1:
            continue
        if inverses is not None and d.id in inverses:
            inv = inverses[d.id]
            if (d.s * inv - 1) % d.m != 0:
                raise ValueError(f"{inv} does not invert {d.s} modulo {d.m}")
        else:
            inv = mod_inverse(d.s, d.m)
        table += single_entry_table(d.id, d.rank, (0, 0), 0, d.m * inv)
    return table


def _entries_in_A(spec: CRQGroupSpec, table: MultTable) -> Optional[MembershipFailure]:
    for d in spec.types:
        mat = table.block(d.id)
        if mat is None:
            continue
        for i, row in enumerate(mat):
            for j, vec in enumerate(row):
                for c in vec:
                    if not is_p_integer(c.denominator, d.inf_primes):
                        return MembershipFailure(
                            "ENTRY_OUTSIDE_A",
                            d.id,
                            (i, j),
                            f"coordinate {c} is not integral at this type",
                        )
    return None


def _vector_residues_zero(vec: Vector, modulus: int) -> bool:
    return all(fraction_residue(c, modulus) == 0 for c in vec)


def _unscaled_border(d: CriticalTypeData, mat: Matrix) -> Optional[tuple[int, int]]:
    """First entry of row 0 or column 0 that is not m-scaled, or None.

    Entries are visited as (0, j) then (j, 0) for increasing j, and must
    already be integral at the type.
    """
    for j in range(d.rank):
        for entry in ((0, j), (j, 0)):
            if not _vector_residues_zero(mat[entry[0]][entry[1]], d.m):
                return entry
    return None


def in_M1(spec: CRQGroupSpec, table: MultTable) -> bool:
    """All entries integral, with row 0 and column 0 of clipped types m-scaled."""
    ensure_valid(spec)
    check_table_shape(spec, table)
    if _entries_in_A(spec, table) is not None:
        return False
    return all(
        _unscaled_border(d, table.matrix(d.id, d.rank)) is None
        for d in spec.types
        if d.m > 1
    )


def in_M2(spec: CRQGroupSpec, table: MultTable) -> bool:
    """Border scaling as in_M1 plus m^2-scaling of each clipped corner entry."""
    if not in_M1(spec, table):
        return False
    for d in spec.types:
        if d.m == 1:
            continue
        mat = table.matrix(d.id, d.rank)
        if not _vector_residues_zero(mat[0][0], d.m * d.m):
            return False
    return True


def decide_membership(spec: CRQGroupSpec, table: MultTable) -> MembershipVerdict:
    """Decide whether the table defines a multiplication on the whole group.

    The table must lie in the group generated by the distinguished corner
    table and the doubly scaled tables: borders of clipped types m-scaled,
    corner entries congruent to a common multiple of the corner generator.
    The witness alpha is that multiple, reported modulo the regulator index.
    """
    ensure_valid(spec)
    check_table_shape(spec, table)
    failure = _entries_in_A(spec, table)
    if failure is not None:
        return MembershipVerdict(False, None, failure)
    congruences = []
    for d in spec.types:
        if d.m == 1:
            continue
        mat = table.matrix(d.id, d.rank)
        entry = _unscaled_border(d, mat)
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
        corner = tuple(c / d.m for c in mat[0][0])
        for slot in range(1, d.rank):
            if fraction_residue(corner[slot], d.m) != 0:
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
        alpha_t = fraction_residue(corner[0], d.m) * d.s % d.m
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


def build_product(
    spec: CRQGroupSpec, table: MultTable
) -> Callable[[AmbientElement, AmbientElement], AmbientElement]:
    """Bilinear evaluator induced by the table; cross-type terms vanish."""
    ensure_valid(spec)
    check_table_shape(spec, table)

    def product(g: AmbientElement, h: AmbientElement) -> AmbientElement:
        check_element_shape(spec, g)
        check_element_shape(spec, h)
        out: dict[str, list[Fraction]] = {}
        for tid in g.support:
            hv = h.block(tid)
            if not hv:
                continue
            gv = g.block(tid)
            rank = spec.rank_of(tid)
            mat = table.matrix(tid, rank)
            acc = [Fraction(0)] * rank
            for i, gi in enumerate(gv):
                if not gi:
                    continue
                for j, hj in enumerate(hv):
                    if not hj:
                        continue
                    coeff = gi * hj
                    for k, c in enumerate(mat[i][j]):
                        if c:
                            acc[k] += coeff * c
            out[tid] = acc
        return AmbientElement.of(out)

    return product


def closure_oracle(spec: CRQGroupSpec, table: MultTable) -> bool:
    """Check closure of the induced bilinear map directly on generators.

    True when all basis products are integral, the square of the
    distinguished generator lands back in the group, and its products with
    every basis vector land in the regulator.
    """
    ensure_valid(spec)
    check_table_shape(spec, table)
    if _entries_in_A(spec, table) is not None:
        return False
    product = build_product(spec, table)
    d = element_d(spec)
    if in_G(spec, product(d, d)) is None:
        return False
    for data in spec.types:
        for slot in range(data.rank):
            e = basis_element(spec, data.id, slot)
            if not _element_in_A(spec, product(d, e)):
                return False
            if not _element_in_A(spec, product(e, d)):
                return False
    return True


def rescale_slot0_coords(
    spec: CRQGroupSpec,
    table: MultTable,
    units: Mapping[str, Scalar],
    *,
    invert: bool = False,
) -> MultTable:
    """Rewrite entry coordinates after rescaling slot-0 basis vectors by units.

    Each unit must be invertible in the localization of its type, so the
    rescaled vectors generate the same regulator block.  With invert=False the
    slot-0 coordinate is divided by the unit (coordinates over the new basis);
    invert=True undoes that.
    """
    ensure_valid(spec)
    check_table_shape(spec, table)
    factors: dict[str, Fraction] = {}
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
        factors[tid] = w if invert else 1 / w
    out: dict[str, list[list[list[Fraction]]]] = {}
    for tid, mat in table.blocks:
        rows = [[list(vec) for vec in row] for row in mat]
        if tid in factors:
            for row in rows:
                for vec in row:
                    vec[0] *= factors[tid]
        out[tid] = rows
    return MultTable.of(out)


def random_r_fraction(
    rng: random.Random, inf_primes, *, num_bound: int = 9, max_power: int = 2
) -> Fraction:
    """Random element of the localization: integer over a product of listed primes."""
    num = rng.randint(-num_bound, num_bound)
    den = 1
    inf = tuple(inf_primes)
    if inf and rng.random() < 0.5:
        den = rng.choice(inf) ** rng.randint(1, max_power)
        if len(inf) > 1 and rng.random() < 0.3:
            den *= rng.choice(inf)
    return Fraction(num, den)


def _random_vector(rng: random.Random, rank: int, inf, density: float) -> list[Fraction]:
    return [
        random_r_fraction(rng, inf) if rng.random() < density else Fraction(0)
        for _ in range(rank)
    ]


def sample_m2_table(spec: CRQGroupSpec, rng: random.Random, *, density: float = 0.7) -> MultTable:
    """Random table with scaled borders and doubly scaled corners."""
    ensure_valid(spec)
    blocks = {}
    for d in spec.types:
        mat = []
        for i in range(d.rank):
            row = []
            for j in range(d.rank):
                if rng.random() < density:
                    vec = _random_vector(rng, d.rank, d.inf_primes, 0.8)
                else:
                    vec = [Fraction(0)] * d.rank
                if d.m > 1:
                    if i == 0 and j == 0:
                        scale = d.m * d.m
                    elif i == 0 or j == 0:
                        scale = d.m
                    else:
                        scale = 1
                    vec = [scale * c for c in vec]
                row.append(vec)
            mat.append(row)
        blocks[d.id] = mat
    return MultTable.of(blocks)


def sample_member_table(spec: CRQGroupSpec, rng: random.Random) -> tuple[MultTable, int]:
    """Random member table: a multiple of the corner generator plus scaled noise."""
    alpha = rng.randrange(1, spec.n) if spec.n > 1 else 0
    return alpha * generator_x(spec) + sample_m2_table(spec, rng), alpha


def sample_broken_corner_table(spec: CRQGroupSpec, rng: random.Random) -> Optional[MultTable]:
    """Member table perturbed inside the scaled borders so no witness exists.

    Returns None when every invariant equals 1, in which case every integral
    table is a member and this stratum is empty.
    """
    clipped = [spec.data_for(tid) for tid in spec.t0_ids]
    if not clipped:
        return None
    base, _ = sample_member_table(spec, rng)
    strategies = []
    pairs = [
        (a, b)
        for i, a in enumerate(clipped)
        for b in clipped[i + 1 :]
        if gcd(a.m, b.m) > 1
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
    clipped = [spec.data_for(tid) for tid in spec.t0_ids]
    if not clipped:
        return None
    base = sample_m2_table(spec, rng)
    target = rng.choice(clipped)
    j = rng.randrange(target.rank)
    position = (0, j) if rng.random() < 0.5 else (j, 0)
    slot = rng.randrange(target.rank)
    return base + single_entry_table(target.id, target.rank, position, slot, 1)


def table_to_dict(table: MultTable) -> dict:
    """JSON-ready form: nested lists of reduced fraction strings per block."""
    return {
        "blocks": {
            tid: [[[str(c) for c in vec] for vec in row] for row in mat]
            for tid, mat in table.blocks
        }
    }


def table_from_dict(data: object) -> MultTable:
    """Parse the JSON form; coordinates are integers or fraction strings."""
    if not isinstance(data, dict) or set(data) != {"blocks"}:
        raise ValueError("table document must be an object with a single 'blocks' key")
    raw = data["blocks"]
    if not isinstance(raw, dict):
        raise ValueError("'blocks' must map type ids to matrices")
    blocks = {}
    for tid, mat in raw.items():
        if not isinstance(tid, str):
            raise ValueError("block keys must be type ids")
        if not isinstance(mat, list) or not all(isinstance(row, list) for row in mat):
            raise ValueError(f"block {tid!r} must be a matrix")
        blocks[tid] = [[coords_from_json(vec, tid) for vec in row] for row in mat]
    return MultTable.of(blocks)
