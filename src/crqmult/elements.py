"""Elements of the divisible hull and membership tests against the regulator.

An ambient element stores one coordinate vector per critical type, with exact
rational coordinates over the canonical basis.  Blocks that are entirely zero
are dropped, so structural equality is equality of supports and coordinates.
The block container behind it is shared with product tables, which keep one
cube per type instead of one vector.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, ClassVar, Iterable, Mapping, Optional, Sequence, Union

from .groups import CRQGroupSpec, ensure_valid
from .numth import coprime_part, crt_solve, fraction_residue, gcd, is_p_integer, lcm_all, mod_inverse

__all__ = [
    "AmbientElement",
    "Blocks",
    "GMembership",
    "basis_element",
    "element_d",
    "project",
    "in_scaled_A_tau",
    "in_G",
    "in_g_closed_form",
    "order_mod_A",
    "purity_oracle",
    "purity_witness",
    "element_to_dict",
    "element_from_dict",
    "coords_from_json",
]

Scalar = Union[int, Fraction]


def _leaves(block, depth: int) -> Sequence:
    """Leaves of a block nested `depth` levels deep, in row-major order.

    A depth-1 block is returned as it is, so callers must not mutate the result.
    """
    for _ in range(depth - 1):
        block = [x for part in block for x in part]
    return block


def _nest(leaves: list, size: int, depth: int) -> tuple:
    """Inverse of _leaves for a block whose every level has `size` items."""
    out = tuple(leaves)
    for _ in range(depth - 1):
        out = tuple(out[i : i + size] for i in range(0, len(out), size))
    return out


@dataclass(frozen=True)
class Blocks:
    """Exact rational blocks per type id, sorted by id, all-zero blocks dropped.

    A block is nested `depth` levels deep and every level of it has the
    block's length: a vector at depth 1, a cube at depth 3.  Arithmetic runs
    on the flat list of a block's leaves.
    """

    blocks: tuple[tuple[str, tuple], ...] = ()
    depth: ClassVar[int]

    @classmethod
    def of(cls, mapping: Mapping[str, Iterable]):
        """Container from nested iterables per type id; leaves become fractions."""
        sized = {}
        for tid in sorted(mapping):
            level = list(mapping[tid])
            size = len(level)
            for _ in range(cls.depth - 1):
                level = [list(part) for part in level]
                if any(len(part) != size for part in level):
                    raise ValueError(f"block {tid!r} is not {size} wide at every level")
                level = [x for part in level for x in part]
            sized[tid] = (size, [c if type(c) is Fraction else Fraction(c) for c in level])
        return cls._from_leaves(sized)

    @classmethod
    def _from_leaves(cls, sized: Mapping[str, tuple[int, list]]):
        return cls(
            tuple(
                (tid, _nest(leaves, size, cls.depth))
                for tid, (size, leaves) in sorted(sized.items())
                if any(leaves)
            )
        )

    @classmethod
    def zero(cls):
        return cls(())

    def block(self, tid: str) -> tuple:
        for t, b in self.blocks:
            if t == tid:
                return b
        return ()

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.blocks)

    @property
    def is_zero(self) -> bool:
        return not self.blocks

    def check_shape(self, spec: CRQGroupSpec) -> None:
        """Raise unless every block matches a type of the spec and its rank."""
        for tid, b in self.blocks:
            rank = spec.data_for(tid).rank
            if len(b) != rank:
                raise ValueError(f"block {tid!r} has size {len(b)}, expected {rank}")

    def outside_regulator(self, spec: CRQGroupSpec) -> Optional[tuple[str, int]]:
        """(type id, leaf index) of the first coordinate outside the regulator, or None.

        A coordinate lies in the regulator block of its type when its
        denominator has no prime outside the type's infinite primes.
        """
        for tid, b in self.blocks:
            inf = spec.data_for(tid).inf_primes
            leaves = _leaves(b, self.depth)
            for c in leaves:
                if not is_p_integer(c.denominator, inf):
                    # an equal coordinate earlier in the block would have failed first
                    return tid, leaves.index(c)
        return None

    def _combine(self, other: "Blocks", op: Callable):
        if type(other) is not type(self):
            return NotImplemented
        sized = {t: (len(b), _leaves(b, self.depth)) for t, b in self.blocks}
        for t, b in other.blocks:
            size, ours = sized.get(t, (len(b), [0] * len(b) ** self.depth))
            if size != len(b):
                raise ValueError(f"block {t!r} has mismatched sizes")
            sized[t] = (size, list(map(op, ours, _leaves(b, self.depth))))
        return self._from_leaves(sized)

    def __add__(self, other: "Blocks"):
        return self._combine(other, operator.add)

    def __sub__(self, other: "Blocks"):
        return self._combine(other, operator.sub)

    def __neg__(self):
        return self * -1

    def __mul__(self, scalar: Scalar):
        factor = Fraction(scalar)
        return self._from_leaves(
            {t: (len(b), [factor * c for c in _leaves(b, self.depth)]) for t, b in self.blocks}
        )

    __rmul__ = __mul__


class AmbientElement(Blocks):
    """Rational coordinate vectors per type, zero blocks dropped."""

    depth = 1


@dataclass(frozen=True)
class GMembership:
    """Witness that an element equals k*d + a with a in the regulator."""

    k: int
    a: AmbientElement


def basis_element(spec: CRQGroupSpec, tid: str, slot: int) -> AmbientElement:
    """The basis vector of the given type and slot."""
    data = spec.data_for(tid)
    if not 0 <= slot < data.rank:
        raise ValueError(f"slot {slot} out of range for rank {data.rank}")
    vec = [Fraction(0)] * data.rank
    vec[slot] = Fraction(1)
    return AmbientElement.of({tid: vec})


def _element_d_unchecked(spec: CRQGroupSpec) -> AmbientElement:
    blocks = {}
    for d in spec.clipped:
        vec = [Fraction(0)] * d.rank
        vec[0] = Fraction(d.s, d.m)
        blocks[d.id] = vec
    return AmbientElement.of(blocks)


def element_d(spec: CRQGroupSpec) -> AmbientElement:
    """The distinguished generator over the regulator, s/m on each clipped slot."""
    ensure_valid(spec)
    return _element_d_unchecked(spec)


def project(spec: CRQGroupSpec, g: AmbientElement, tid: str) -> AmbientElement:
    """Component of g in the block of one type."""
    spec.data_for(tid)
    vec = g.block(tid)
    return AmbientElement.of({tid: vec}) if vec else AmbientElement.zero()


def in_scaled_A_tau(spec: CRQGroupSpec, g: AmbientElement, tid: str, scale: int) -> bool:
    """True when g, supported on the block of tid, lies in scale * A_tau."""
    if scale < 1:
        raise ValueError(f"scale must be positive, got {scale}")
    spec.data_for(tid)
    if any(t != tid for t in g.support):
        raise ValueError(f"element has support outside type {tid!r}")
    g.check_shape(spec)
    return (g * Fraction(1, scale)).outside_regulator(spec) is None


def in_G(spec: CRQGroupSpec, g: AmbientElement) -> Optional[GMembership]:
    """Decompose g as k*d + a with 0 <= k < n and a in the regulator.

    Tries each candidate k in turn; the decomposition is unique when it
    exists because n is the order of d over the regulator.
    """
    ensure_valid(spec)
    g.check_shape(spec)
    d = element_d(spec)
    current = g
    for k in range(spec.n):
        if current.outside_regulator(spec) is None:
            return GMembership(k, current)
        current = current - d
    return None


def in_g_closed_form(spec: CRQGroupSpec, g: AmbientElement) -> Optional[GMembership]:
    """Same decomposition as in_G, with k solved from slot-0 congruences.

    Slot 0 of a clipped type forces k * s == m * g_0 modulo m; an absent
    block forces k == 0 modulo m.
    """
    ensure_valid(spec)
    g.check_shape(spec)
    congruences = []
    for d in spec.clipped:
        vec = g.block(d.id)
        scaled = d.m * vec[0] if vec else Fraction(0)
        if gcd(scaled.denominator, d.m) != 1:
            # a prime of m lies outside the type's infinite primes
            return None
        congruences.append((fraction_residue(scaled, d.m) * mod_inverse(d.s, d.m) % d.m, d.m))
    solution = crt_solve(congruences)
    if solution is None:
        return None
    k = solution[0] % spec.n
    a = g - k * element_d(spec)
    return GMembership(k, a) if a.outside_regulator(spec) is None else None


def order_mod_A(spec: CRQGroupSpec, g: AmbientElement) -> int:
    """Least t >= 1 with t*g in the regulator.

    Per coordinate this is the part of the reduced denominator supported away
    from the infinite primes; the result is the lcm over all coordinates.
    """
    g.check_shape(spec)
    parts = [1]
    for tid, vec in g.blocks:
        inf = spec.data_for(tid).inf_primes
        parts.extend(coprime_part(c.denominator, inf) for c in vec)
    return lcm_all(parts)


def purity_oracle(spec: CRQGroupSpec, tid: str) -> bool:
    """True when the regulator block of tid is pure in the group.

    The block fails purity exactly when its invariant does not divide the lcm
    of the other invariants.
    """
    data = spec.data_for(tid)
    n1 = lcm_all(d.m for d in spec.types if d.id != tid)
    return n1 % data.m == 0


def purity_witness(spec: CRQGroupSpec, tid: str) -> Optional[tuple[AmbientElement, int]]:
    """For an impure block: (x, t) with x outside the block but t*x inside.

    Returns None when the block is pure.  The witness is n1 times the block
    component of the generator, with t the complementary cofactor of n.
    """
    if purity_oracle(spec, tid):
        return None
    n1 = lcm_all(d.m for d in spec.types if d.id != tid)
    x = n1 * project(spec, _element_d_unchecked(spec), tid)
    return x, spec.n // n1


def element_to_dict(g: AmbientElement) -> dict[str, list[str]]:
    """JSON-ready form: reduced fraction strings per block."""
    return {tid: [str(c) for c in vec] for tid, vec in g.blocks}


_FRACTION_STRING = re.compile(r"-?[0-9]+(/[0-9]+)?")


def coords_from_json(vec: object, tid: str) -> list[Fraction]:
    """Coordinate vector from JSON; only a list of integers or fraction strings is accepted."""
    if not isinstance(vec, list):
        raise ValueError(f"block {tid!r} has a coordinate vector that is not a list")
    out = []
    for c in vec:
        if isinstance(c, bool) or not (
            isinstance(c, int) or isinstance(c, str) and _FRACTION_STRING.fullmatch(c)
        ):
            raise ValueError(
                f"block {tid!r} has coordinate {c!r}, expected an integer or a fraction string"
            )
        try:
            out.append(Fraction(c))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"block {tid!r} has a malformed coordinate: {exc}") from None
    return out


def element_from_dict(data: object) -> AmbientElement:
    if not isinstance(data, dict):
        raise ValueError("element document must be an object")
    blocks = {}
    for tid, vec in data.items():
        if not isinstance(tid, str):
            raise ValueError("block keys must be type ids")
        blocks[tid] = coords_from_json(vec, tid)
    return AmbientElement.of(blocks)
