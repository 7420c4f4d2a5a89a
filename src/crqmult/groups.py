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
    s: int

    def __init__(self, id: str, inf_primes: PrimeSet, rank: int, m: int, s: int = 1):
        """Type with the given fields, exactly typed, rank and m at least 1; m = 1 sets s to 1."""
        if type(id) is not str:
            raise ValueError("type id must be a string")
        if type(inf_primes) is not PrimeSet:
            raise ValueError(f"inf_primes must be a PrimeSet, got {type(inf_primes).__name__}")
        if not (type(rank) is type(m) is type(s) is int):
            key = next(k for k, v in (("rank", rank), ("m", m), ("s", s)) if type(v) is not int)
            raise ValueError(f"{key} must be an integer")
        if rank < 1 or m < 1:
            raise ValueError(f"type {id!r} has rank {rank} and m = {m}; both must be at least 1")
        setter = object.__setattr__
        setter(self, "id", id)
        setter(self, "inf_primes", inf_primes)
        setter(self, "rank", rank)
        setter(self, "m", m)
        setter(self, "s", 1 if m == 1 else s)


def _entry_id(entry: object) -> str:
    """Sort key of a spec entry, its id; anything but a CriticalTypeData is refused."""
    if not isinstance(entry, CriticalTypeData):
        raise ValueError(f"expected CriticalTypeData entries, got {type(entry).__name__}")
    return entry.id


@record
class CRQGroupSpec:
    """Full symbolic description of a group: one entry per critical type, sorted by id.

    The validation result and the id index are computed on first use and kept
    with the value, so repeated guards on one spec cost an attribute read.
    """

    types: tuple[CriticalTypeData, ...]

    def __init__(self, types: Iterable[CriticalTypeData]):
        """Spec of the given types in any order; an argument that is not iterable, an entry
        that is not a CriticalTypeData, and an id given twice, are refused."""
        try:
            ordered = sorted(types, key=_entry_id)
        except TypeError:  # not iterable; the key refuses any entry that is not a type
            kind = type(types).__name__
            raise ValueError(f"expected CriticalTypeData entries, got {kind}") from None
        for d, following in zip(ordered, ordered[1:]):
            if d.id == following.id:
                raise ValueError(f"type {d.id!r} is given twice")
        object.__setattr__(self, "types", tuple(ordered))

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
        return math.lcm(*(d.m for d in self.types))

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """All violations of the paper's conditions by this spec, empty when it is valid.

        More than MAX_TYPES types are refused with LimitError first.  The checks, in
        order: m and s supported away from the infinite primes of their own type, s
        coprime to m, pairwise incomparable types, and the shared-prime-power condition
        on the m values.
        """
        if len(self.types) > MAX_TYPES:
            raise LimitError("the type count", len(self.types), "MAX_TYPES", MAX_TYPES)
        violations: list[Violation] = []
        for d in self.types:
            if has_factor_in(d.m, d.inf_primes):
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
            if pa <= pb or pb <= pa:
                violations.append(Violation("COMPARABLE_TYPES", (a, b), "prime sets are nested"))
        if not condition_m_check({d.id: d.m for d in self.types}):
            violations.append(
                Violation("CONDITION_M_FAILED", (), "some prime power divides only one m value")
            )
        return tuple(violations)

    @cached_property
    def _by_id(self) -> dict[str, CriticalTypeData]:
        return {d.id: d for d in self.types}

    def data_for(self, tid: str) -> CriticalTypeData:
        try:
            return self._by_id[tid]
        except KeyError:
            raise ValueError(f"unknown type id {tid!r}") from None

    @cached_property
    def lcm_without(self) -> dict[str, int]:
        """Per type id, the lcm of the m values of the other types."""
        return {d.id: r for d, r in zip(self.types, lcm_of_others([d.m for d in self.types]))}

    def with_coefficients(self, coefficients: Mapping[str, int]) -> "CRQGroupSpec":
        """Copy of the spec with the s of the listed types replaced."""
        return CRQGroupSpec(
            CriticalTypeData(d.id, d.inf_primes, d.rank, d.m, coefficients[d.id])
            if d.id in coefficients
            else d
            for d in self.types
        )


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
    """The spec's violations of the paper's conditions, kept once computed; empty if valid.

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


@record
class GenBounds:
    """Bounds for the random spec generator."""

    max_types: int = 3
    max_rank: int = 3
    max_m: int = 36


_PRIME_POOL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_M_PRIMES = (2, 3, 5, 7, 11)


def random_spec(seed: int, bounds: GenBounds = GenBounds()) -> CRQGroupSpec:
    """Seeded random valid spec within the given bounds.

    Each type receives a distinguishing infinite prime, so the types are pairwise
    incomparable.  Every prime power placed into an m value is placed into at least two of
    them, which enforces the shared-prime-power condition.  Each s is a unit modulo m drawn
    by its index, in time that does not grow with max_m.  The same seed always produces the
    same spec.  A seed that is not an int, or bounds that are not a GenBounds of positive
    ints or that no spec meets, are refused.
    """
    if type(seed) is not int:
        raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
    if type(bounds) is not GenBounds:
        raise ValueError(f"bounds must be a GenBounds, got {type(bounds).__name__}")
    numbers = (bounds.max_types, bounds.max_rank, bounds.max_m)
    if not all(type(b) is int and b >= 1 for b in numbers):
        raise ValueError(f"bounds must be positive, got {bounds}")
    if bounds.max_types == 1 and bounds.max_m > 1:
        raise ValueError("a single type cannot share its prime powers, need max_m == 1")
    if len(_PRIME_POOL) < bounds.max_types:
        raise ValueError(
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
            k_max, power = 1, p * p
            while power <= bounds.max_m:
                k_max, power = k_max + 1, power * p
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
        inf, s = PrimeSet(inf_sets[i]), 1
        if ms[i] > 1:
            # m's primes all come from _M_PRIMES; r is a unit modulo m just when it is one
            # modulo their product rad, so the units below m repeat with period rad
            rad = math.prod(p for p in _M_PRIMES if ms[i] % p == 0)
            units = [r for r in range(1, rad) if math.gcd(r, rad) == 1]
            periods, r = divmod(rng.randrange(len(units) * (ms[i] // rad)), len(units))
            s = p0_class_representative(periods * rad + units[r], ms[i], inf)
        entries.append(CriticalTypeData(f"t{i + 1}", inf, ranks[i], ms[i], s))
    spec = CRQGroupSpec(entries)
    if spec.violations:
        raise ValueError("generator produced an invalid spec: " + str(spec.violations[0]))
    return spec


def spec_to_dict(spec: CRQGroupSpec) -> dict:
    """JSON-ready form: types sorted by id and primes increasing, as the constructors hold them."""
    return {
        "types": [
            {
                "id": d.id,
                "inf_primes": list(d.inf_primes),
                "rank": d.rank,
                "m": d.m,
                "s": d.s,
            }
            for d in spec.types
        ]
    }


_TYPE_KEYS = frozenset(("id", "inf_primes", "rank", "m", "s"))


def spec_from_dict(data: object) -> CRQGroupSpec:
    """Parse the JSON form; the reader refuses a wrong shape and the constructors a wrong field."""
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
        primes = item["inf_primes"]
        if not isinstance(primes, list):
            raise ValueError("inf_primes must be a list of integers")
        entries.append(
            CriticalTypeData(item["id"], PrimeSet(primes), item["rank"], item["m"], item["s"])
        )
    return CRQGroupSpec(entries)


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
