"""Independent reference routes that the library no longer carries.

Each function computes a fact by a different route from the library's own,
so acceptance criteria can check one against the other.
"""

import math
from fractions import Fraction

from crqmult.elements import AmbientElement, element_d, in_G
from crqmult.numth import crt_solve, fraction_residue, is_p_integer, prime_factors
from crqmult.tables import build_product


def basis_vector(tid, rank, slot):
    """The basis vector of one type and slot, in the stored block form."""
    nums = [0] * rank
    nums[slot] = 1
    return AmbientElement(((tid, rank, 1, tuple(nums)),))


def project(spec, g, tid):
    """Component of g in the block of one type, rebuilt from its Fraction coordinates."""
    spec.data_for(tid)
    return AmbientElement.of({tid: fraction_block(g, tid)})


def in_scaled_A_tau(spec, g, tid, scale):
    """True when g, supported on the block of tid, lies in scale * A_tau.

    Every coordinate over scale must have a denominator made of the type's
    infinite primes.
    """
    if scale < 1:
        raise ValueError(f"scale must be positive, got {scale}")
    data = spec.data_for(tid)
    if any(t != tid for t in g.support):
        raise ValueError(f"element has support outside type {tid!r}")
    coords = fraction_block(g, tid)
    if coords and len(coords) != data.rank:
        raise ValueError(f"block {tid!r} has size {len(coords)}, expected {data.rank}")
    return all(is_p_integer((c / scale).denominator, data.inf_primes) for c in coords)


def order_mod_A(spec, g):
    """Least t >= 1 with t*g in the regulator.

    Per coordinate c, the least t with t*c integral at the type is found by
    trying t = 1, 2, ... up to the denominator of c; the order of g is the
    lcm of those.
    """
    order = 1
    for tid in g.support:
        inf = spec.data_for(tid).inf_primes
        for c in fraction_block(g, tid):
            t = next(t for t in range(1, c.denominator + 1)
                     if is_p_integer((t * c).denominator, inf))
            order = math.lcm(order, t)
    return order


def purity_witness(spec, tid):
    """For an impure block: (x, t) with x outside the block's regulator but t*x in it.

    None when the lcm n1 of the other types' invariants is a multiple of m.
    Otherwise x is n1 * s/m on slot 0 of the block and t is n / n1; entries
    sharing the id all leave n1.
    """
    data = spec.data_for(tid)
    n1 = math.lcm(*(t.m for t in spec.types if t.id != tid))
    if n1 % data.m == 0:
        return None
    x = AmbientElement.of({tid: [Fraction(n1 * data.s, data.m)] + [0] * (data.rank - 1)})
    return x, spec.n // n1


def euler_phi(m):
    """Count of residues in [1, m] coprime to m."""
    if m < 1:
        raise ValueError(f"euler_phi requires a positive integer, got {m}")
    result = m
    for p in prime_factors(m) if m > 1 else ():
        result -= result // p
    return result


def fraction_block(blocks, tid):
    """Nested tuples of Fractions of the block of tid, () when it is zero.

    Every level of a block has the block's length: a vector for an element,
    a matrix of vectors for a table.
    """
    part = blocks.part(tid)
    if part is None:
        return ()
    size, den, nums = part
    out = tuple(Fraction(x, den) for x in nums)
    for _ in range(blocks.depth - 1):
        out = tuple(out[i : i + size] for i in range(0, len(out), size))
    return out


def fraction_matrix(table, tid, rank):
    """Matrix of Fraction coordinate vectors of one table block, zero when it is absent."""
    block = fraction_block(table, tid)
    if not block:
        zero = (Fraction(0),) * rank
        return ((zero,) * rank,) * rank
    return block


def border_scaling_check(spec, table):
    """Row 0 and column 0 of every clipped type are m-scaled.

    Tests c/m in the localization of the type for every border coordinate c,
    where the library reduces coordinates modulo m instead.  Every table that
    defines a multiplication satisfies this.
    """
    for d in spec.types:
        if d.m == 1:
            continue
        mat = fraction_matrix(table, d.id, d.rank)
        border = list(mat[0]) + [row[0] for row in mat]
        for vec in border:
            if not all(is_p_integer((c / d.m).denominator, d.inf_primes) for c in vec):
                return False
    return True


def ref_closure_oracle(spec, table):
    """Closure of the induced bilinear map, evaluated product by product.

    Builds the generator d and every basis vector of each clipped type the
    table stores, and multiplies them with `build_product`: d*d must lie in
    the group, and d*e and e*d in the regulator.
    """
    if table.outside_regulator(spec) is not None:
        return False
    product = build_product(spec, table)
    d = element_d(spec)
    if in_G(spec, product(d, d)) is None:
        return False
    for data in spec.clipped:
        if table.part(data.id) is None:
            continue
        for slot in range(data.rank):
            e = basis_vector(data.id, data.rank, slot)
            if product(d, e).outside_regulator(spec) is not None:
                return False
            if product(e, d).outside_regulator(spec) is not None:
                return False
    return True


# -- Fraction reference for the integer block kernel ---------------------------
#
# A reference container is a dict from type id to the flat row-major list of a
# block's coordinates as Fractions, with all-zero blocks left out.


def ref_drop_zero(blocks):
    return {tid: leaves for tid, leaves in blocks.items() if any(leaves)}


def ref_combine(a, b, sign):
    out = dict(a)
    for tid, leaves in b.items():
        mine = out.get(tid, [Fraction(0)] * len(leaves))
        out[tid] = [x + sign * y for x, y in zip(mine, leaves)]
    return ref_drop_zero(out)


def ref_scale(a, scalar):
    return ref_drop_zero({tid: [scalar * x for x in leaves] for tid, leaves in a.items()})


def ref_outside_regulator(spec, a):
    """(type id, leaf index) of the first coordinate whose reduced denominator
    has a prime outside the type's infinite primes, in type id order."""
    for tid in sorted(a):
        inf = spec.data_for(tid).inf_primes
        for i, c in enumerate(a[tid]):
            if not is_p_integer(c.denominator, inf):
                return tid, i
    return None


def ref_decide(spec, cubes):
    """Membership decision on Fraction coordinates, reduced with fraction_residue.

    `cubes` maps type ids to flat row-major cubes.  Returns (member, alpha,
    failure code, failure type, failure entry, failure detail).
    """
    found = ref_outside_regulator(spec, cubes)
    if found is not None:
        tid, leaf = found
        rank = spec.data_for(tid).rank
        entry = divmod(leaf // rank, rank)
        c = cubes[tid][leaf]
        return (False, None, "ENTRY_OUTSIDE_A", tid, entry,
                f"coordinate {c} is not integral at this type")
    congruences = []
    for d in spec.clipped:
        r = d.rank
        cube = cubes.get(d.id, [Fraction(0)] * r**3)

        def vec(i, j):
            return cube[(i * r + j) * r : (i * r + j + 1) * r]

        for j in range(r):
            for entry in ((0, j), (j, 0)):
                if any(fraction_residue(c, d.m) for c in vec(*entry)):
                    return (False, None, "BORDER_NOT_SCALED", d.id, entry,
                            f"entry is not divisible by m = {d.m}")
        corner = [c / d.m for c in vec(0, 0)]
        for slot in range(1, r):
            if fraction_residue(corner[slot], d.m):
                return (False, None, "CORNER_RESIDUE", d.id, (0, 0),
                        f"slot {slot} of the reduced corner is nonzero modulo {d.m}")
        congruences.append((fraction_residue(corner[0], d.m) * d.s % d.m, d.m))
    solution = crt_solve(congruences)
    if solution is None:
        return (False, None, "ALPHA_INCONSISTENT", None, None,
                "corner congruences admit no common witness")
    return (True, (solution[0] % spec.n, spec.n), None, None, None, "")
