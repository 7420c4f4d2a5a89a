"""Seeded inputs for the benchmark workloads.

Every table and its expected verdict come from the construction in this file,
never from the library's own samplers or verdicts.  A table built as
alpha * X + (doubly scaled noise), where X carries m * s^-1 on the corner
slot of each clipped type, is a member with witness alpha.  The two broken
strata violate a condition that the construction controls: a corner bump
that no common witness can absorb, or a border entry that is not m-scaled.

Inputs are JSON text, so the timed path includes the library's parsers.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional

# --seed s draws spec seeds s * SPEC_SEED_STRIDE + i, i = 0, 1, 2, ...; the
# default seed 0 therefore starts with the acceptance population 0..199.
SPEC_SEED_STRIDE = 10**6
TABLES_PER_SPEC = 20

# Regulator indices of the scaling series, as prime -> exponent.
SCALING_SIZES = {36: {2: 2, 3: 2}, 900: {2: 2, 3: 2, 5: 2}, 10800: {2: 4, 3: 3, 5: 2}}
SCALING_TYPES = 3
# Infinite primes for the scaling series avoid 2, 3 and 5, the divisors of n.
SCALING_INF_POOL = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)

MEMBER, DOUBLY_SCALED, BROKEN_CORNER, UNSCALED_BORDER = range(4)


@dataclass(frozen=True)
class TableCase:
    """One table as JSON text with the verdict its construction implies."""

    text: str
    member: bool
    alpha: Optional[int]  # witness residue modulo n for members, else None


@dataclass(frozen=True)
class SpecCase:
    """One spec as JSON text, its regulator index and its tables."""

    text: str
    n: int
    ranks: tuple[int, ...]
    ms: tuple[int, ...]
    tables: tuple[TableCase, ...]


# -- spec descriptions -------------------------------------------------------


def spec_dict_from_library(spec, tag: str) -> dict:
    """JSON form of a library spec, with every type id suffixed by `tag`.

    The suffix makes each spec value distinct within a run even when two
    generator seeds give the same group, so a cache keyed on spec values
    cannot gain from the benchmark repeating itself.
    """
    return {
        "types": [
            {
                "id": f"{d.id}-{tag}",
                "inf_primes": list(d.inf_primes),
                "rank": d.rank,
                "m": d.m,
                "s": d.s,
            }
            for d in spec.types
        ]
    }


def _regulator_index(spec: dict) -> int:
    return math.lcm(*(t["m"] for t in spec["types"]))


def _p0_representative(residue: int, m: int, inf: list[int]) -> int:
    x = residue % m or m
    while any(x % p == 0 for p in inf):
        x += m
    return x


def scaling_spec(rng: random.Random, n: int, tag: str) -> dict:
    """Valid spec of three clipped types whose regulator index is exactly n.

    Each prime power of n is carried in full by at least two types, which
    makes n the lcm and satisfies the shared prime power condition; the other
    types take a lower, nonzero power.  The ranks are a seeded permutation of
    1, 2, 3, so the cost of one scan step is the same for every spec.
    Infinite primes avoid the divisors of n.
    """
    ranks = rng.sample(range(1, SCALING_TYPES + 1), SCALING_TYPES)
    k = SCALING_TYPES
    exponents: list[dict[int, int]] = [{} for _ in range(k)]
    for p, e in SCALING_SIZES[n].items():
        carriers = set(rng.sample(range(k), rng.randint(2, k)))
        for i in range(k):
            exponents[i][p] = e if i in carriers else rng.randint(1, e)
    ms = [math.prod(p**x for p, x in exps.items()) for exps in exponents]
    distinguishing = rng.sample(SCALING_INF_POOL, k)
    shared = [p for p in SCALING_INF_POOL if p not in distinguishing]
    types = []
    for i in range(k):
        inf = {distinguishing[i]}
        if rng.random() < 0.3:
            inf.add(rng.choice(shared))
        inf_sorted = sorted(inf)
        m = ms[i]
        s = 1
        if m > 1:
            r = rng.randrange(1, m)
            while math.gcd(r, m) != 1:
                r = rng.randrange(1, m)
            s = _p0_representative(r, m, inf_sorted)
        types.append(
            {"id": f"t{i + 1}-{tag}", "inf_primes": inf_sorted, "rank": ranks[i], "m": m, "s": s}
        )
    spec = {"types": types}
    if _regulator_index(spec) != n:
        raise AssertionError(f"scaling spec has index {_regulator_index(spec)}, wanted {n}")
    return spec


# -- tables --------------------------------------------------------------------
#
# A block under construction is a rank x rank matrix of coordinate vectors;
# each coordinate is a [numerator, denominator] pair whose denominator is a
# product of the type's infinite primes.


def _r_value(rng: random.Random, inf: list[int]) -> list[int]:
    """Random element of the localization at the type's infinite primes."""
    num = rng.randint(-9, 9)
    den = 1
    if inf and rng.random() < 0.5:
        den = rng.choice(inf) ** rng.randint(1, 2)
        if len(inf) > 1 and rng.random() < 0.3:
            den *= rng.choice(inf)
    return [num, den]


def _noise_block(rng: random.Random, t: dict) -> list:
    """Doubly scaled block: borders m-scaled, corner m^2-scaled."""
    rank, m, inf = t["rank"], t["m"], t["inf_primes"]
    mat = []
    for i in range(rank):
        row = []
        for j in range(rank):
            if rng.random() < 0.7:
                vec = [_r_value(rng, inf) if rng.random() < 0.8 else [0, 1] for _ in range(rank)]
            else:
                vec = [[0, 1] for _ in range(rank)]
            if m > 1:
                scale = m * m if i == 0 and j == 0 else m if i == 0 or j == 0 else 1
                for c in vec:
                    c[0] *= scale
            row.append(vec)
        mat.append(row)
    return mat


def _add_integer(mat: list, i: int, j: int, slot: int, value: int) -> None:
    c = mat[i][j][slot]
    c[0] += value * c[1]


def _table_text(blocks: dict) -> str:
    def coord(c: list[int]) -> str:
        return str(c[0]) if c[1] == 1 else f"{c[0]}/{c[1]}"

    return json.dumps(
        {
            "blocks": {
                tid: [[[coord(c) for c in vec] for vec in row] for row in mat]
                for tid, mat in blocks.items()
            }
        }
    )


def _clipped(spec: dict) -> list[dict]:
    return [t for t in spec["types"] if t["m"] > 1]


def _doubly_scaled(rng: random.Random, spec: dict) -> dict:
    return {t["id"]: _noise_block(rng, t) for t in spec["types"]}


def _member(
    rng: random.Random, spec: dict, n: int, alpha: Optional[int] = None
) -> tuple[dict, int]:
    if alpha is None:
        alpha = rng.randrange(1, n) if n > 1 else 0
    blocks = _doubly_scaled(rng, spec)
    for t in _clipped(spec):
        _add_integer(blocks[t["id"]], 0, 0, 0, alpha * t["m"] * pow(t["s"], -1, t["m"]))
    return blocks, alpha


def _broken_corner(rng: random.Random, spec: dict, n: int) -> Optional[dict]:
    """Member plus a corner bump of m that leaves no common witness.

    On slot 0 the bump moves one type's witness by s, which a partner sharing
    a divisor with its m cannot follow; on a later slot it leaves a nonzero
    reduced corner residue.
    """
    clipped = _clipped(spec)
    pairs = [
        (a, b)
        for i, a in enumerate(clipped)
        for b in clipped[i + 1 :]
        if math.gcd(a["m"], b["m"]) > 1
    ]
    wide = [t for t in clipped if t["rank"] >= 2]
    strategies = (["pair"] if pairs else []) + (["offslot"] if wide else [])
    if not strategies:
        return None
    blocks, _ = _member(rng, spec, n)
    if rng.choice(strategies) == "pair":
        target = rng.choice(rng.choice(pairs))
        slot = 0
    else:
        target = rng.choice(wide)
        slot = rng.randrange(1, target["rank"])
    _add_integer(blocks[target["id"]], 0, 0, slot, target["m"])
    return blocks


def _unscaled_border(rng: random.Random, spec: dict, corner_only: bool) -> Optional[dict]:
    """Doubly scaled table plus 1 on one border entry of a clipped type."""
    clipped = _clipped(spec)
    if not clipped:
        return None
    blocks = _doubly_scaled(rng, spec)
    target = rng.choice(clipped)
    rank = target["rank"]
    j = 0 if corner_only else rng.randrange(rank)
    position = (0, j) if rng.random() < 0.5 else (j, 0)
    _add_integer(blocks[target["id"]], position[0], position[1], rng.randrange(rank), 1)
    return blocks


def stratum_table(
    rng: random.Random,
    spec: dict,
    n: int,
    stratum: int,
    *,
    corner_only: bool = False,
    alpha: Optional[int] = None,
) -> TableCase:
    """Table of one stratum; strata that need a clipped type fall back to members.

    A member's witness is drawn uniformly from 1..n-1 unless `alpha` is given.
    """
    if stratum == BROKEN_CORNER:
        blocks = _broken_corner(rng, spec, n)
        if blocks is not None:
            return TableCase(_table_text(blocks), False, None)
        stratum = MEMBER
    if stratum == UNSCALED_BORDER:
        blocks = _unscaled_border(rng, spec, corner_only)
        if blocks is not None:
            return TableCase(_table_text(blocks), False, None)
        stratum = DOUBLY_SCALED
    if stratum == MEMBER:
        blocks, alpha = _member(rng, spec, n, alpha)
        return TableCase(_table_text(blocks), True, alpha % n)
    return TableCase(_table_text(_doubly_scaled(rng, spec)), True, 0)


def _spec_case(spec: dict, tables: list[TableCase]) -> SpecCase:
    return SpecCase(
        text=json.dumps(spec),
        n=_regulator_index(spec),
        ranks=tuple(t["rank"] for t in spec["types"]),
        ms=tuple(t["m"] for t in spec["types"]),
        tables=tuple(tables),
    )


# -- workloads -----------------------------------------------------------------


def batch_small_case(crq, seed: int, index: int) -> SpecCase:
    """Spec `index` of the batch population with its 20 stratified tables."""
    spec_seed = seed * SPEC_SEED_STRIDE + index
    spec = spec_dict_from_library(
        crq.groups.random_spec(spec_seed, crq.groups.GenBounds(3, 3, 36)), str(spec_seed)
    )
    n = _regulator_index(spec)
    rng = random.Random(f"batch_small/{seed}/{index}")
    tables = [stratum_table(rng, spec, n, i % 4) for i in range(TABLES_PER_SPEC)]
    return _spec_case(spec, tables)


def scaling_rounds(seed: int) -> Iterator[tuple[SpecCase, ...]]:
    """Endless rounds; round r holds one spec per size with one table of stratum r mod 4.

    Unscaled borders sit on the corner entry here, so both broken strata make
    the oracle scan all n candidates, members scan alpha + 1 and doubly
    scaled tables one.  Member witnesses follow a golden-ratio sequence from
    a seeded start, which spreads them evenly over 1..n-1 in any run length.
    Together these fix the mix of scan lengths, so a per-size median does not
    swing with a few draws.
    """
    rngs = {n: random.Random(f"index_scaling/{seed}/{n}") for n in SCALING_SIZES}
    offsets = {n: rng.random() for n, rng in rngs.items()}
    golden = (math.sqrt(5) - 1) / 2
    r = 0
    while True:
        cases = []
        for n, rng in rngs.items():
            spec = scaling_spec(rng, n, f"{seed}.{r}")
            alpha = 1 + int((offsets[n] + (r // 4) * golden) % 1.0 * (n - 1))
            table = stratum_table(rng, spec, n, r % 4, corner_only=True, alpha=alpha)
            cases.append(_spec_case(spec, [table]))
        yield tuple(cases)
        r += 1
