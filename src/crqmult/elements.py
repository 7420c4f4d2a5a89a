"""Elements of the divisible hull and membership tests against the regulator.

An ambient element stores one coordinate vector per critical type, with exact
rational coordinates over the canonical basis.  Blocks that are entirely zero
are dropped, so structural equality is equality of supports and coordinates.
The block container behind it is shared with product tables, which keep one
cube per type instead of one vector.

A block is kept as one positive denominator and a flat tuple of integer
numerators in row-major order, reduced so that the denominator and the
numerators have no common factor.  That form is unique for each value, and
arithmetic, the regulator test and the JSON forms all run on those integers.
"""

from __future__ import annotations

import math
import re

from ._record import record
from .groups import CRQGroupSpec, ensure_valid
from .numth import coprime_part, crt_solve, mod_inverse

# true only for type checkers, so typing stays unloaded at run time
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import ClassVar, Mapping, Optional, Sequence

__all__ = [
    "AmbientElement",
    "Blocks",
    "GMembership",
    "element_d",
    "in_G",
    "in_g_closed_form",
    "purity_oracle",
    "element_from_dict",
    "coords_from_json",
]

# in_G tries up to n candidates; the scan of two rank-1 types takes about 11 us
# per candidate (Python 3.11, one Xeon core), so n at this bound costs about 0.25 s.
MAX_SCAN_INDEX = 20000
# Each candidate also subtracts d and rescans, in time linear in the coordinates
# stored in g and d, so a scan costs about n * (10 us + 70 ns per coordinate).
# Full scans with n times those coordinates near this bound took 0.19-0.26 s at
# n = 2003 and n = 211, and 0.46-0.48 s at n = 19997 (Python 3.11, 2-vCPU VM).
MAX_SCAN_WORK = 3 * 10**6
# (size, denominator, numerators) of one stored block
Part = tuple[int, int, tuple[int, ...]]


def format_coord(num: int, den: int) -> str:
    """The string of the fraction num / den, den positive, as `str(Fraction)` writes it."""
    g = math.gcd(num, den)
    if g == den:
        return str(num // den)
    return f"{num // g}/{den // g}"


def _reduced(den: int, nums: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Denominator and numerators with their common factor divided out."""
    g = math.gcd(den, *nums)
    if g == 1:
        return den, tuple(nums)
    return den // g, tuple(x // g for x in nums)


def _common_form(nums: Sequence[int], dens: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Reduced block form of the coordinates nums[i] / dens[i], dens positive."""
    den = math.lcm(*dens)
    if den == 1:
        return 1, tuple(nums)
    return _reduced(den, [x * (den // d) for x, d in zip(nums, dens)])


@record
class Blocks:
    """Exact rational blocks per type id, sorted by id, all-zero blocks dropped.

    A block is nested `depth` levels deep and every level of it has the
    block's length: a vector at depth 1, a cube at depth 3.  `parts` holds
    one (type id, size, denominator, numerators) entry per nonzero block.
    """

    parts: tuple[tuple[str, int, int, tuple[int, ...]], ...] = ()
    depth: ClassVar[int]

    def __init__(self, parts: tuple[tuple[str, int, int, tuple[int, ...]], ...] = ()):
        # written out, not bound by the record: every arithmetic step builds one
        object.__setattr__(self, "parts", parts)

    @classmethod
    def from_coords(cls, coords: Mapping[str, tuple[int, list[int], list[int]]]):
        """Container from (size, numerators, denominators) per type id."""
        parts = []
        for tid in sorted(coords):
            size, nums, dens = coords[tid]
            den, flat = _common_form(nums, dens)
            if any(flat):
                parts.append((tid, size, den, flat))
        return cls(tuple(parts))

    @classmethod
    def from_parts(cls, parts: Mapping[str, tuple[int, int, Sequence[int]]]):
        """Container from (size, denominator, numerators) per type id, not yet reduced."""
        out = []
        for tid in sorted(parts):
            size, den, nums = parts[tid]
            if any(nums):
                out.append((tid, size, *_reduced(den, nums)))
        return cls(tuple(out))

    @classmethod
    def zero(cls):
        return cls(())

    def part(self, tid: str) -> Optional[Part]:
        """(size, denominator, numerators) of the block of tid, or None when it is zero."""
        for t, size, den, nums in self.parts:
            if t == tid:
                return size, den, nums
        return None

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(p[0] for p in self.parts)

    @property
    def is_zero(self) -> bool:
        return not self.parts

    @classmethod
    def check(cls, spec: CRQGroupSpec, value: object) -> None:
        """Raise ValueError unless the spec is valid and value is a cls that fits it.

        Every block must belong to a type of the spec, have that type's rank
        as its size and hold size ** depth numerators.
        """
        ensure_valid(spec)
        if not isinstance(value, cls):
            raise ValueError(f"expected {cls.__name__}, got {type(value).__name__}")
        for tid, size, _, nums in value.parts:
            rank = spec.data_for(tid).rank
            if size != rank:
                raise ValueError(f"block {tid!r} has size {size}, expected {rank}")
            if len(nums) != size**cls.depth:
                raise ValueError(
                    f"block {tid!r} holds {len(nums)} coordinates, expected {size}^{cls.depth}"
                )

    def outside_regulator(self, spec: CRQGroupSpec) -> Optional[tuple[str, int]]:
        """(type id, leaf index) of the first coordinate outside the regulator, or None.

        A coordinate lies in the regulator block of its type when its
        denominator has no prime outside the type's infinite primes.  The
        block denominator is the lcm of those denominators, so the leaves are
        only scanned when it fails.
        """
        for tid, _, den, nums in self.parts:
            if den == 1:
                continue
            inf = spec.data_for(tid).inf_primes
            if coprime_part(den, inf) == 1:
                continue
            for i, x in enumerate(nums):
                if coprime_part(den // math.gcd(x, den), inf) != 1:
                    return tid, i
        return None

    def _combine(self, other: "Blocks", sign: int):
        """Merge of the two sorted part lists; only blocks on both sides are reduced.

        A block held by one side alone, or its negation, is already reduced.
        """
        if type(other) is not type(self):
            return NotImplemented
        mine, theirs = self.parts, other.parts
        out = []
        i = j = 0
        while i < len(mine) and j < len(theirs):
            tid, size, d1, n1 = mine[i]
            t2, size2, den, nums = theirs[j]
            if tid < t2:
                out.append(mine[i])
                i += 1
            elif t2 < tid:
                out.append(theirs[j] if sign > 0 else (t2, size2, den, tuple(-x for x in nums)))
                j += 1
            else:
                i += 1
                j += 1
                if size != size2:
                    raise ValueError(f"block {tid!r} has mismatched sizes")
                if d1 == den:
                    combined = [x + sign * y for x, y in zip(n1, nums)]
                else:
                    g = math.gcd(d1, den)
                    a, b = den // g, d1 // g
                    combined = [x * a + sign * b * y for x, y in zip(n1, nums)]
                    den = d1 * a
                if any(combined):
                    out.append((tid, size, *_reduced(den, combined)))
        out.extend(mine[i:])
        if sign > 0:
            out.extend(theirs[j:])
        else:
            out.extend((t, size, den, tuple(-x for x in nums)) for t, size, den, nums in theirs[j:])
        return type(self)(tuple(out))

    def __add__(self, other: "Blocks"):
        return self._combine(other, 1)

    def __sub__(self, other: "Blocks"):
        return self._combine(other, -1)

    def __neg__(self):
        return self * -1

    def __mul__(self, scalar: int):
        # integers only: any other type gets NotImplemented, so Python raises TypeError
        if not isinstance(scalar, int):
            return NotImplemented
        return self.from_parts(
            {tid: (size, den, [scalar * x for x in nums]) for tid, size, den, nums in self.parts}
        )

    __rmul__ = __mul__


class AmbientElement(Blocks):
    """Rational coordinate vectors per type, zero blocks dropped."""

    depth = 1


@record
class GMembership:
    """Witness that an element equals k*d + a with a in the regulator."""

    k: int
    a: AmbientElement


def element_d(spec: CRQGroupSpec) -> AmbientElement:
    """The distinguished generator over the regulator, s/m on each clipped slot."""
    ensure_valid(spec)
    return AmbientElement.from_parts(
        {d.id: (d.rank, d.m, [d.s] + [0] * (d.rank - 1)) for d in spec.clipped}
    )


def in_G(spec: CRQGroupSpec, g: AmbientElement) -> Optional[GMembership]:
    """Decompose g as k*d + a with 0 <= k < n and a in the regulator.

    Tries each candidate k in turn; the decomposition is unique when it
    exists because n is the order of d over the regulator.  A regulator
    index past MAX_SCAN_INDEX is refused.  Past k = 0, so is a scan whose n
    times the coordinates stored in g and d passes MAX_SCAN_WORK.
    """
    AmbientElement.check(spec, g)
    if spec.n > MAX_SCAN_INDEX:
        raise ValueError(f"regulator index {spec.n} exceeds the scan limit {MAX_SCAN_INDEX}")
    if g.outside_regulator(spec) is None:
        return GMembership(0, g)
    # d stores a full-rank vector for every clipped type: count it before building it
    work = spec.n * (sum(len(p[3]) for p in g.parts) + sum(t.rank for t in spec.clipped))
    if work > MAX_SCAN_WORK:
        raise ValueError(
            f"regulator index {spec.n} times the stored coordinates comes to {work}, "
            f"over the scan limit {MAX_SCAN_WORK}"
        )
    d = element_d(spec)
    current = g
    for k in range(1, spec.n):
        current = current - d
        if current.outside_regulator(spec) is None:
            return GMembership(k, current)
    return None


def in_g_closed_form(spec: CRQGroupSpec, g: AmbientElement) -> Optional[GMembership]:
    """Same decomposition as in_G, with k solved from slot-0 congruences.

    Slot 0 of a clipped type forces k * s == m * g_0 modulo m; an absent
    block forces k == 0 modulo m.
    """
    AmbientElement.check(spec, g)
    congruences = []
    for d in spec.clipped:
        part = g.part(d.id)
        num, den = (d.m * part[2][0], part[1]) if part else (0, 1)
        common = math.gcd(num, den)
        num, den = num // common, den // common
        if math.gcd(den, d.m) != 1:
            # a prime of m lies outside the type's infinite primes
            return None
        congruences.append((num * mod_inverse(den * d.s, d.m) % d.m, d.m))
    solution = crt_solve(congruences)
    if solution is None:
        return None
    k = solution[0] % spec.n
    a = g - k * element_d(spec)
    return GMembership(k, a) if a.outside_regulator(spec) is None else None


def purity_oracle(spec: CRQGroupSpec, tid: str) -> bool:
    """True when the regulator block of tid is pure in the group.

    The block fails purity exactly when its invariant does not divide the lcm
    of the other invariants.
    """
    m = spec.data_for(tid).m
    return spec.lcm_without[tid] % m == 0


# ASCII digits only: [0-9], unlike \d, matches no other script's digits
_FRACTION_STRING = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def coords_from_json(vec: object, tid: str, nums: list[int], dens: list[int]) -> None:
    """Append the numerators and denominators of a JSON coordinate vector.

    Only a list of integers or fraction strings is accepted; denominators
    may be unreduced but not zero.
    """
    if not isinstance(vec, list):
        raise ValueError(f"block {tid!r} has a coordinate vector that is not a list")
    match = _FRACTION_STRING.fullmatch
    for c in vec:
        # the commonest coordinate, so it skips the regex
        if c == "0":
            nums.append(0)
            dens.append(1)
            continue
        if isinstance(c, str):
            found = match(c)
            if found is not None:
                num, den = found.groups()
                try:
                    nums.append(int(num))
                    dens.append(1 if den is None else int(den))
                except ValueError as exc:
                    raise ValueError(f"block {tid!r} has a malformed coordinate: {exc}") from None
                if dens[-1] == 0:
                    raise ValueError(
                        f"block {tid!r} has a malformed coordinate: Fraction({nums[-1]}, 0)"
                    )
                continue
        elif isinstance(c, int) and not isinstance(c, bool):
            nums.append(int(c))
            dens.append(1)
            continue
        raise ValueError(
            f"block {tid!r} has coordinate {c!r}, expected an integer or a fraction string"
        )


def element_from_dict(data: object) -> AmbientElement:
    if not isinstance(data, dict):
        raise ValueError("element document must be an object")
    coords = {}
    for tid, vec in data.items():
        if not isinstance(tid, str):
            raise ValueError("block keys must be type ids")
        nums: list[int] = []
        dens: list[int] = []
        coords_from_json(vec, tid, nums, dens)
        coords[tid] = (len(nums), nums, dens)
    return AmbientElement.from_coords(coords)
