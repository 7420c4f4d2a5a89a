"""Elements of the divisible hull and membership tests against the regulator.

An ambient element stores one coordinate vector per critical type, with exact
rational coordinates over the canonical basis.  Blocks that are entirely zero
are dropped, so structural equality is equality of supports and coordinates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .groups import CRQGroupSpec, ensure_valid
from .numth import coprime_part, fraction_residue, is_p_integer, lcm_all, mod_inverse, crt_solve

__all__ = [
    "AmbientElement",
    "GMembership",
    "basis_element",
    "check_element_shape",
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
_Coords = Union[Iterable[Union[int, str, Fraction]], "tuple[Fraction, ...]"]


@dataclass(frozen=True)
class AmbientElement:
    """Rational coordinate vectors per type, zero blocks dropped."""

    blocks: tuple[tuple[str, tuple[Fraction, ...]], ...] = ()

    @classmethod
    def of(cls, mapping: Mapping[str, _Coords]) -> "AmbientElement":
        blocks = []
        for tid in sorted(mapping):
            vec = tuple(Fraction(c) for c in mapping[tid])
            if any(vec):
                blocks.append((tid, vec))
        return cls(tuple(blocks))

    @classmethod
    def zero(cls) -> "AmbientElement":
        return cls(())

    def as_dict(self) -> dict[str, tuple[Fraction, ...]]:
        return dict(self.blocks)

    def block(self, tid: str) -> tuple[Fraction, ...]:
        for t, vec in self.blocks:
            if t == tid:
                return vec
        return ()

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.blocks)

    @property
    def is_zero(self) -> bool:
        return not self.blocks

    def _combine(self, other: "AmbientElement", sign: int) -> "AmbientElement":
        out: dict[str, list[Fraction]] = {t: list(v) for t, v in self.blocks}
        for t, vec in other.blocks:
            if t in out:
                if len(out[t]) != len(vec):
                    raise ValueError(f"block {t!r} has mismatched lengths")
                for i, c in enumerate(vec):
                    out[t][i] += sign * c
            else:
                out[t] = [sign * c for c in vec]
        return AmbientElement.of(out)

    def __add__(self, other: "AmbientElement") -> "AmbientElement":
        return self._combine(other, 1)

    def __sub__(self, other: "AmbientElement") -> "AmbientElement":
        return self._combine(other, -1)

    def __neg__(self) -> "AmbientElement":
        return AmbientElement(tuple((t, tuple(-c for c in v)) for t, v in self.blocks))

    def __mul__(self, scalar: Scalar) -> "AmbientElement":
        factor = Fraction(scalar)
        return AmbientElement.of({t: [factor * c for c in v] for t, v in self.blocks})

    __rmul__ = __mul__


@dataclass(frozen=True)
class GMembership:
    """Witness that an element equals k*d + a with a in the regulator."""

    k: int
    a: AmbientElement


def check_element_shape(spec: CRQGroupSpec, g: AmbientElement) -> None:
    """Raise unless every block of g matches a type and its rank."""
    for tid, vec in g.blocks:
        data = spec.data_for(tid)
        if len(vec) != data.rank:
            raise ValueError(
                f"block {tid!r} has {len(vec)} coordinates, expected {data.rank}"
            )


def basis_element(spec: CRQGroupSpec, tid: str, slot: int, coeff: Scalar = 1) -> AmbientElement:
    """coeff times the basis vector of the given type and slot."""
    data = spec.data_for(tid)
    if not 0 <= slot < data.rank:
        raise ValueError(f"slot {slot} out of range for rank {data.rank}")
    vec = [Fraction(0)] * data.rank
    vec[slot] = Fraction(coeff)
    return AmbientElement.of({tid: vec})


def _element_d_unchecked(spec: CRQGroupSpec) -> AmbientElement:
    blocks = {}
    for d in spec.types:
        if d.m > 1:
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


def _coord_in_r(c: Fraction, inf_primes) -> bool:
    return is_p_integer(c.denominator, inf_primes)


def _element_in_A(spec: CRQGroupSpec, g: AmbientElement) -> bool:
    for tid, vec in g.blocks:
        inf = spec.data_for(tid).inf_primes
        for c in vec:
            if not _coord_in_r(c, inf):
                return False
    return True


def in_scaled_A_tau(spec: CRQGroupSpec, g: AmbientElement, tid: str, scale: int) -> bool:
    """True when g, supported on the block of tid, lies in scale * A_tau."""
    if scale < 1:
        raise ValueError(f"scale must be positive, got {scale}")
    data = spec.data_for(tid)
    if any(t != tid for t in g.support):
        raise ValueError(f"element has support outside type {tid!r}")
    check_element_shape(spec, g)
    return all(_coord_in_r(c / scale, data.inf_primes) for c in g.block(tid))


def in_G(spec: CRQGroupSpec, g: AmbientElement) -> Optional[GMembership]:
    """Decompose g as k*d + a with 0 <= k < n and a in the regulator.

    Tries each candidate k in turn; the decomposition is unique when it
    exists because n is the order of d over the regulator.
    """
    ensure_valid(spec)
    check_element_shape(spec, g)
    d = element_d(spec)
    current = g
    for k in range(spec.n):
        if _element_in_A(spec, current):
            return GMembership(k, current)
        current = current - d
    return None


def in_g_closed_form(spec: CRQGroupSpec, g: AmbientElement) -> Optional[GMembership]:
    """Same decomposition as in_G, with k solved from slot-0 congruences."""
    ensure_valid(spec)
    check_element_shape(spec, g)
    congruences = []
    for data in spec.types:
        inf = data.inf_primes
        vec = g.block(data.id)
        if not vec:
            continue
        for i, c in enumerate(vec):
            if data.m > 1 and i == 0:
                continue
            if not _coord_in_r(c, inf):
                return None
        if data.m > 1:
            scaled = data.m * vec[0]
            if not _coord_in_r(scaled, inf):
                return None
            residue = fraction_residue(scaled, data.m)
            congruences.append((residue * mod_inverse(data.s, data.m) % data.m, data.m))
    for data in spec.types:
        # absent clipped blocks still constrain k: k * s/m must land in R_tau
        if data.m > 1 and not g.block(data.id):
            congruences.append((0, data.m))
    solution = crt_solve(congruences)
    if solution is None:
        return None
    k = solution[0] % spec.n
    a = g - k * element_d(spec)
    return GMembership(k, a)


def order_mod_A(spec: CRQGroupSpec, g: AmbientElement) -> int:
    """Least t >= 1 with t*g in the regulator.

    Per coordinate this is the part of the reduced denominator supported away
    from the infinite primes; the result is the lcm over all coordinates.
    """
    check_element_shape(spec, g)
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
