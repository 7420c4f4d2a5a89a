"""Symbolic data for reduced block-rigid groups with cyclic regulator quotient.

A group of ring type is recorded as one flat record per critical type: its
id, the type itself (a finite set of primes with infinite height), the free
rank of its regulator block, the near-isomorphism invariant m (the order of
the generator's projection over the regulator) and the coefficient s of the
standard representation of that generator.  The fields follow the order of
a type entry in the JSON form.  The regulator quotient is cyclic of order
n = lcm of the m values.

This module owns validation of such data, the main decomposition into the
clipped part and its complement, a seeded random generator, and the canonical
JSON form.
"""

from __future__ import annotations

import json
import math
import random
import sys
from functools import cached_property
from itertools import combinations

from ._record import record
from .numth import (
    LimitError,
    PrimeSet,
    condition_m_check,
    has_factor_in,
    lcm_all,
    lcm_of_others,
    p0_class_representative,
)

# true only for type checkers, so typing stays unloaded at run time
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Mapping

# bounds only validation's pairwise pass, whose time grows as the square of the type
# count: `crqmult validate` on single-prime types took 0.04, 0.13, 0.19, 0.25 and 0.46 s
# at 400, 800, 1000, 1200 and 1600 types (Python 3.11, 2-vCPU VM).  Specs past it are
# refused before any check runs; every other route reads each type once.
MAX_TYPES = 1000


@record
class CriticalTypeData:
    """One critical type: id, infinite primes, rank, invariant m, coefficient s.

    The coefficient is only meaningful when m > 1 and is normalised to 1
    otherwise.  Slot 0 of a type with m > 1 is the clipped basis slot.
    """

    id: str
    inf_primes: PrimeSet
    rank: int
    m: int
    s: int = 1

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"invariant m must be positive, got {self.m}")
        if self.m == 1 and self.s != 1:
            object.__setattr__(self, "s", 1)


@record
class CRQGroupSpec:
    """Full symbolic description of a group: one entry per critical type.

    The validation result and the id index are computed on first use and kept
    with the value, so repeated guards on one spec cost an attribute read.
    """

    types: tuple[CriticalTypeData, ...]

    @classmethod
    def of(cls, types: Iterable[CriticalTypeData]) -> "CRQGroupSpec":
        """Canonical spec with entries sorted by type id."""
        return cls(tuple(sorted(types, key=lambda d: d.id)))

    @property
    def type_ids(self) -> tuple[str, ...]:
        return tuple(d.id for d in self.types)

    @cached_property
    def clipped(self) -> tuple[CriticalTypeData, ...]:
        """Entries of the types with m > 1 (the clipped types), in spec order."""
        return tuple(d for d in self.types if d.m > 1)

    @property
    def t0_ids(self) -> tuple[str, ...]:
        """Ids of the clipped types."""
        return tuple(d.id for d in self.clipped)

    @cached_property
    def n(self) -> int:
        """Regulator index: the order of the cyclic regulator quotient."""
        return lcm_all(d.m for d in self.types)

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """All rule violations of this spec, empty when it is valid.

        More than MAX_TYPES types are refused with LimitError first.  The checks, in
        order: duplicate ids, positive ranks, m and s supported away from the infinite
        primes of their own type, s coprime to m, pairwise incomparable types, and the
        shared-prime-power condition on the m values.
        """
        if len(self.types) > MAX_TYPES:
            raise LimitError("the type count", len(self.types), "MAX_TYPES", MAX_TYPES)
        violations: list[Violation] = []
        seen: set[str] = set()
        for d in self.types:
            if d.id in seen:
                violations.append(Violation("DUPLICATE_TYPE", (d.id,), "type id appears twice"))
            seen.add(d.id)
        for d in self.types:
            if d.rank < 1:
                violations.append(Violation("RANK_ZERO", (d.id,), f"rank {d.rank} is below 1"))
            if d.m > 1 and has_factor_in(d.m, d.inf_primes):
                detail = f"m = {d.m} has a factor among the infinite primes"
                violations.append(Violation("M_NOT_P0", (d.id,), detail))
            if d.s != 0 and has_factor_in(d.s, d.inf_primes):
                detail = f"s = {d.s} has a factor among the infinite primes"
                violations.append(Violation("S_NOT_P0", (d.id,), detail))
            if math.gcd(d.s, d.m) != 1:
                detail = f"gcd({d.s}, {d.m}) != 1"
                violations.append(Violation("S_M_NOT_COPRIME", (d.id,), detail))
        prime_sets = [(d.id, frozenset(d.inf_primes)) for d in self.types]
        for (a, pa), (b, pb) in combinations(prime_sets, 2):
            if a != b and (pa <= pb or pb <= pa):
                violations.append(Violation("COMPARABLE_TYPES", (a, b), "prime sets are nested"))
        if not condition_m_check({i: d.m for i, d in enumerate(self.types)}):
            violations.append(
                Violation("CONDITION_M_FAILED", (), "some prime power divides only one m value")
            )
        return tuple(violations)

    @cached_property
    def _by_id(self) -> dict[str, CriticalTypeData]:
        index: dict[str, CriticalTypeData] = {}
        for d in self.types:
            index.setdefault(d.id, d)
        return index

    def data_for(self, tid: str) -> CriticalTypeData:
        try:
            return self._by_id[tid]
        except KeyError:
            raise ValueError(f"unknown type id {tid!r}") from None

    @cached_property
    def lcm_without(self) -> dict[str, int]:
        """Per type id, the lcm of the m values of the entries with another id."""
        ms: dict[str, int] = {}
        for d in self.types:
            ms[d.id] = math.lcm(ms.get(d.id, 1), d.m)
        return dict(zip(ms, lcm_of_others(list(ms.values()))))

    def with_coefficients(self, coefficients: Mapping[str, int]) -> "CRQGroupSpec":
        """Copy of the spec with the s of the listed types replaced."""
        out = []
        for d in self.types:
            if d.id in coefficients:
                out.append(CriticalTypeData(d.id, d.inf_primes, d.rank, d.m, coefficients[d.id]))
            else:
                out.append(d)
        return CRQGroupSpec.of(out)


@record
class Violation:
    """One validation failure with a machine-readable code."""

    code: str
    subjects: tuple[str, ...] = ()
    detail: str = ""

    def __str__(self) -> str:
        subjects = ", ".join(self.subjects)
        return f"{self.code}({subjects}): {self.detail}" if subjects else f"{self.code}: {self.detail}"


def validate_spec(spec: CRQGroupSpec) -> list[Violation]:
    """The violations that the spec computes once and keeps, empty when it is valid.

    Anything but a spec is refused with ValueError, more than MAX_TYPES types with LimitError.
    """
    ensure_spec(spec)
    return list(spec.violations)


def ensure_spec(value: object) -> None:
    """Raise ValueError for anything but a spec; the spec itself may be invalid."""
    if not isinstance(value, CRQGroupSpec):
        raise ValueError(f"expected a CRQGroupSpec, got {type(value).__name__}")


def ensure_valid(spec: CRQGroupSpec) -> None:
    """Raise ValueError for anything but a spec, and list the violations of an invalid one."""
    ensure_spec(spec)
    if spec.violations:
        raise ValueError("invalid spec: " + "; ".join(str(v) for v in spec.violations))


@record
class MainDecomposition:
    """Split into the clipped part (slot 0 of each type with m > 1) and its complement."""

    clipped: tuple[str, ...]
    complement: tuple[tuple[str, int], ...]


def main_decomposition(spec: CRQGroupSpec) -> MainDecomposition:
    """Canonical main decomposition of a valid spec.

    The clipped summand keeps slot 0 of every type with m > 1 and carries all
    invariants m; the complement is completely decomposable with the remaining
    ranks.
    """
    ensure_valid(spec)
    clipped = spec.t0_ids
    complement = tuple(
        (d.id, d.rank - 1 if d.m > 1 else d.rank) for d in spec.types
    )
    return MainDecomposition(clipped=clipped, complement=complement)


class GenerationError(ValueError):
    """Raised when generator bounds cannot be met; a max_m past MAX_GEN_M is a LimitError."""


@record
class GenBounds:
    """Bounds for the random spec generator."""

    max_types: int = 3
    max_rank: int = 3
    max_m: int = 36


_PRIME_POOL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_M_PRIMES = (2, 3, 5, 7, 11)
# drawing s lists the residues coprime to m, so generation is linear in max_m
MAX_GEN_M = 10**5


def random_spec(seed: int, bounds: GenBounds = GenBounds()) -> CRQGroupSpec:
    """Seeded random valid spec within the given bounds.

    Each type receives a distinguishing infinite prime, so the types are
    pairwise incomparable.  Every prime power placed into an m value is placed
    into at least two of them, which enforces the shared-prime-power
    condition.  The same seed always produces the same spec.
    """
    if bounds.max_types < 1 or bounds.max_rank < 1 or bounds.max_m < 1:
        raise GenerationError(f"bounds must be positive, got {bounds}")
    if bounds.max_m > MAX_GEN_M:
        raise LimitError("max_m", bounds.max_m, "MAX_GEN_M", MAX_GEN_M)
    if bounds.max_types == 1 and bounds.max_m > 1:
        raise GenerationError("a single type cannot share its prime powers, need max_m == 1")
    if len(_PRIME_POOL) < bounds.max_types:
        raise GenerationError(
            f"prime pool of size {len(_PRIME_POOL)} cannot distinguish "
            f"{bounds.max_types} types"
        )

    rng = random.Random(seed)
    count = rng.randint(1, bounds.max_types)
    distinguishing = rng.sample(_PRIME_POOL, count)
    shared_pool = [p for p in _PRIME_POOL if p not in distinguishing]
    inf_sets: list[set[int]] = []
    for i in range(count):
        primes = {distinguishing[i]}
        if shared_pool and rng.random() < 0.3:
            primes.add(rng.choice(shared_pool))
        inf_sets.append(primes)

    ranks = [rng.randint(1, bounds.max_rank) for _ in range(count)]
    ms = [1] * count
    if count >= 2 and bounds.max_m > 1:
        usable = [p for p in _M_PRIMES if p <= bounds.max_m]
        for _ in range(rng.randint(1, 3)):
            p = rng.choice(usable)
            k_max = 1
            while p ** (k_max + 1) <= bounds.max_m:
                k_max += 1
            q = p ** rng.randint(1, k_max)
            eligible = [
                i
                for i in range(count)
                if p not in inf_sets[i] and ms[i] % p != 0 and ms[i] * q <= bounds.max_m
            ]
            if len(eligible) >= 2:
                chosen = rng.sample(eligible, rng.randint(2, len(eligible)))
                for i in chosen:
                    ms[i] *= q

    entries = []
    for i in range(count):
        inf = PrimeSet.of(inf_sets[i])
        if ms[i] == 1:
            s = 1
        else:
            residues = [r for r in range(1, ms[i]) if math.gcd(r, ms[i]) == 1]
            s = p0_class_representative(rng.choice(residues), ms[i], inf)
        entries.append(CriticalTypeData(f"t{i + 1}", inf, ranks[i], ms[i], s))
    spec = CRQGroupSpec.of(entries)
    if spec.violations:
        raise GenerationError("generator produced an invalid spec: " + str(spec.violations[0]))
    return spec


def spec_to_dict(spec: CRQGroupSpec) -> dict:
    """Canonical JSON-ready form: types sorted by id, primes increasing."""
    return {
        "types": [
            {
                "id": d.id,
                "inf_primes": list(d.inf_primes),
                "rank": d.rank,
                "m": d.m,
                "s": d.s,
            }
            for d in sorted(spec.types, key=lambda d: d.id)
        ]
    }


_TYPE_KEYS = frozenset(("id", "inf_primes", "rank", "m", "s"))


def spec_from_dict(data: object) -> CRQGroupSpec:
    """Parse the JSON form, with shape errors reported as ValueError."""
    if not isinstance(data, dict) or set(data) != {"types"}:
        raise ValueError("spec document must be an object with a single 'types' key")
    raw = data["types"]
    if not isinstance(raw, list):
        raise ValueError("'types' must be a list")
    entries = []
    for item in raw:
        if not isinstance(item, dict):
            raise ValueError("each type must be an object")
        missing = _TYPE_KEYS - set(item)
        if missing:
            raise ValueError(f"type entry missing keys: {sorted(missing)}")
        if len(item) > len(_TYPE_KEYS):
            unknown = sorted(set(item) - _TYPE_KEYS, key=str)
            raise ValueError(f"type entry has unknown keys: {unknown}")
        if not isinstance(item["id"], str):
            raise ValueError("type id must be a string")
        primes = item["inf_primes"]
        if not isinstance(primes, list) or not all(isinstance(p, int) for p in primes):
            raise ValueError("inf_primes must be a list of integers")
        if any(isinstance(p, bool) for p in primes):
            raise ValueError("inf_primes must not contain booleans")
        for key in ("rank", "m", "s"):
            if not isinstance(item[key], int) or isinstance(item[key], bool):
                raise ValueError(f"{key} must be an integer")
        entries.append(
            CriticalTypeData(item["id"], PrimeSet.of(primes), item["rank"], item["m"], item["s"])
        )
    return CRQGroupSpec.of(entries)


def spec_to_json(spec: CRQGroupSpec) -> str:
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True) + "\n"


def spec_from_json(text: str) -> CRQGroupSpec:
    return spec_from_dict(read_json(text))


def read_json(text: str) -> object:
    """The value of a JSON document; an object that repeats a key, or an integer with more
    digits than int() reads, raises ValueError."""
    return json.loads(text, object_pairs_hook=_unique_keys, parse_int=_read_int)


def _read_int(literal: str) -> int:
    try:
        return int(literal)
    except ValueError:  # json matched the digits, so only their count is refused
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"a number has more than {limit} digits, too many to read") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"JSON object repeats key {key!r}")
        out[key] = value
    return out
