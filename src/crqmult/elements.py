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
import sys

from ._record import record
from .groups import CRQGroupSpec, ensure_spec, ensure_valid
from .numth import LimitError, coprime_part

# true only for type checkers, so typing stays unloaded at run time
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import ClassVar, Mapping, Optional, Sequence

# a scan reads n residues per clipped type and its witness stores each clipped type's rank
# coordinates; two rank-1 types scan up to n = 29,999 under this bound
MAX_SCAN_WORK = 60000
# (size, denominator, numerators) of one stored block
Part = tuple[int, int, tuple[int, ...]]


def format_coord(num: int, den: int) -> str:
    """The string of the fraction num / den, den positive, as `str(Fraction)` writes it."""
    g = math.gcd(num, den)
    if g == den:
        return str(num // den)
    return f"{num // g}/{den // g}"


def common_form(nums: list[int], dens: Sequence[int]) -> tuple[int, list[int]]:
    """Common denominator and numerators of the coordinates nums[i] / dens[i], not reduced."""
    den = math.lcm(*dens)
    if den == 1:
        return 1, nums
    return den, [x * (den // d) for x, d in zip(nums, dens)]


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
    def from_parts(cls, parts: Mapping[str, tuple[int, int, Sequence[int]]]):
        """Container from (size, denominator, numerators) per type id, not yet reduced.

        Each nonzero block is divided by its common factor, and the sign of a
        negative denominator moves into the numerators.  Denominator 0 is refused.
        """
        out = []
        for tid in sorted(parts):
            size, den, nums = parts[tid]
            if den < 1:
                if not den:
                    raise ValueError(f"block {tid!r} has denominator 0")
                den, nums = -den, [-x for x in nums]
            if any(nums):
                g = math.gcd(den, *nums)
                if g != 1:
                    den, nums = den // g, [x // g for x in nums]
                out.append((tid, size, den, tuple(nums)))
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

    @classmethod
    def check(cls, spec: CRQGroupSpec, value: object) -> None:
        """Raise ValueError unless the spec is valid and value is a cls that fits it.

        Every block must belong to a type of the spec, have that type's rank
        as its size and hold size ** depth numerators, in the form that
        `from_parts` builds: type ids strictly increasing, and each block
        nonzero and reduced over a positive denominator.
        """
        ensure_valid(spec)
        if not isinstance(value, cls):
            raise ValueError(f"expected {cls.__name__}, got {type(value).__name__}")
        previous = None
        for tid, size, den, nums in value.parts:
            rank = spec.data_for(tid).rank
            if size != rank:
                raise ValueError(f"block {tid!r} has size {size}, expected {rank}")
            if len(nums) != size**cls.depth:
                raise ValueError(
                    f"block {tid!r} holds {len(nums)} coordinates, expected {size}^{cls.depth}"
                )
            if previous is not None and tid <= previous:
                raise ValueError(f"block {tid!r} does not follow block {previous!r} in id order")
            previous = tid
            common = math.gcd(*nums)
            if common == 0:
                raise ValueError(f"block {tid!r} is all zero")
            if den < 1 or math.gcd(den, common) != 1:
                raise ValueError(f"block {tid!r} is not reduced over a positive denominator: {den}")

    def outside_regulator(self, spec: CRQGroupSpec) -> Optional[tuple[str, int]]:
        """(type id, leaf index) of the first coordinate outside the regulator, or None.

        A coordinate lies in the regulator block of its type when its
        denominator has no prime outside the type's infinite primes; x / den
        lies there exactly when bad, the part of den coprime to them, divides x.
        """
        for tid, _, den, nums in self.parts:
            if den != 1:
                bad = coprime_part(den, spec.data_for(tid).inf_primes.primes)
                if bad != 1:
                    for i, x in enumerate(nums):
                        if x % bad:
                            return tid, i
        return None

    def _combine(self, other: "Blocks", sign: int):
        """Sum (sign 1) or difference (sign -1), built and reduced by from_parts."""
        if type(other) is not type(self):
            return NotImplemented
        merged = {tid: (size, den, nums) for tid, size, den, nums in self.parts}
        for tid, size, den, nums in other.parts:
            if tid not in merged:
                merged[tid] = (size, den, [sign * y for y in nums])
                continue
            size1, d1, n1 = merged[tid]
            if size1 != size:
                raise ValueError(f"block {tid!r} has mismatched sizes {size1} and {size}")
            common = math.lcm(d1, den)
            a, b = common // d1, sign * (common // den)
            merged[tid] = (size, common, [x * a + b * y for x, y in zip(n1, nums)])
        return self.from_parts(merged)

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


def in_G(spec: CRQGroupSpec, g: AmbientElement) -> Optional[GMembership]:
    """Decompose g as k*d + a with 0 <= k < n and a in the regulator.

    Tries each candidate k in turn; the decomposition is unique when it
    exists because n is the order of d over the regulator.  k*d moves only
    slot 0 of each clipped type, so every other coordinate is tested once,
    and a candidate costs one residue per clipped type.  Only a scan is
    bounded: when neither k = 0 nor a coordinate that no k*d moves answers,
    n residues per clipped type plus the clipped ranks past MAX_SCAN_WORK
    raise LimitError.
    """
    AmbientElement.check(spec, g)
    # one pass reads each block's bad: the k = 0 answer, and whether a coordinate that no
    # k*d moves (an unclipped block, or a slot past 0) is outside, which is final
    inside = fixed_inside = True
    slot0 = {}
    for tid, _, den, nums in g.parts:
        data = spec.data_for(tid)
        bad = coprime_part(den, data.inf_primes.primes) if den != 1 else 1
        if data.m > 1:
            slot0[tid] = (den, nums, bad)
            inside = inside and nums[0] % bad == 0
        if bad != 1 and math.gcd(bad, *(nums[1:] if data.m > 1 else nums)) != bad:
            inside = fixed_inside = False
    if inside:
        return GMembership(0, g)
    if not fixed_inside:
        return None
    work = spec.n * len(spec.clipped) + sum(t.rank for t in spec.clipped)
    if work > MAX_SCAN_WORK:
        raise LimitError(f"the scan work at n = {spec.n}", work, "MAX_SCAN_WORK", MAX_SCAN_WORK)
    # slot 0 of g - k*d is (x - k*step) / lcm(den, m), in the regulator when lcm(bad, m)
    # divides it: m has no infinite prime, so that is the part of lcm(den, m) outside them
    scan, lifts = [], []
    for t in spec.clipped:
        den, nums, bad = slot0.get(t.id) or (1, (0,) * t.rank, 1)
        common = math.lcm(den, t.m)
        up = common // den
        scan.append((nums[0] * up, t.s * (common // t.m), math.lcm(bad, t.m)))
        lifts.append((t, common, up, nums))
    for k in range(1, spec.n):
        if not any((x - k * step) % bad for x, step, bad in scan):
            # a = g - k*d: each clipped block over lcm(den, m), slot 0 moved by k steps
            parts = {tid: (size, den, nums) for tid, size, den, nums in g.parts}
            for (x, step, _), (t, common, up, nums) in zip(scan, lifts):
                parts[t.id] = (t.rank, common, [x - k * step, *[y * up for y in nums[1:]]])
            return GMembership(k, AmbientElement.from_parts(parts))
    return None


def purity_oracle(spec: CRQGroupSpec, tid: str) -> bool:
    """True when the regulator block of tid is pure in the group.

    The block fails purity exactly when its invariant does not divide the lcm
    of the other invariants.  The spec need not be valid.
    """
    ensure_spec(spec)
    m = spec.data_for(tid).m
    return spec.lcm_without[tid] % m == 0


# ASCII digits only: [0-9], unlike \d, matches no other script's digits
_FRACTION_STRING = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# over these characters int() reads exactly -?[0-9]+ (no space, "+", "_" or other
# digits), and every "/" is followed by a digit
_FRACTION_CHARS = re.compile(r"[-0-9,]*(?:/[0-9][-0-9,]*)*")


def coords_from_json(leaves: list, tid: str) -> tuple[int, list[int]]:
    """Common denominator and numerators of a block's JSON coordinates, not reduced.

    Only integers and fraction strings are accepted; denominators may be
    unreduced but not zero.  A block of strings is checked by one match; any
    other is read one coordinate at a time, which names the first malformed one.
    """
    # the common case, strings only, checked with one match for the block
    try:
        text = ",".join(leaves)
        if _FRACTION_CHARS.fullmatch(text):
            if "/" not in text:
                return 1, list(map(int, leaves))
            nums, dens = [], []
            for c in leaves:
                num, _, den = c.partition("/")
                nums.append(0 if c == "0" else int(num))  # "0", the commonest, skips int()
                dens.append(int(den) if den else 1)
            if 0 not in dens:
                return common_form(nums, dens)
    except (TypeError, ValueError):
        pass  # an integer coordinate, or a refusal that the loop below words
    nums, dens = [], []
    for c in leaves:
        found = _FRACTION_STRING.fullmatch(c) if isinstance(c, str) else None
        if found is None and (isinstance(c, bool) or not isinstance(c, int)):
            raise ValueError(
                f"block {tid!r} has coordinate {c!r}, expected an integer or a fraction string"
            )
        num, den = found.groups() if found else (c, None)
        try:
            nums.append(int(num))
            dens.append(1 if den is None else int(den))
        except ValueError:  # the digits match, so only their count is refused
            digits = f"more than {sys.get_int_max_str_digits()} digits, too many to read"
            raise ValueError(f"block {tid!r} has a coordinate of {digits}") from None
        if dens[-1] == 0:
            raise ValueError(f"block {tid!r} has a malformed coordinate: Fraction({nums[-1]}, 0)")
    return common_form(nums, dens)


def element_from_dict(data: object) -> AmbientElement:
    if not isinstance(data, dict):
        raise ValueError("element document must be an object")
    parts = {}
    for tid, vec in data.items():
        if not isinstance(tid, str):
            raise ValueError("block keys must be type ids")
        if not isinstance(vec, list):
            raise ValueError(f"block {tid!r} has a coordinate vector that is not a list")
        parts[tid] = (len(vec), *coords_from_json(vec, tid))
    return AmbientElement.from_parts(parts)
