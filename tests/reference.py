"""Independent reference routes that the library no longer carries.

Each function computes a fact by a different route from the library's own,
so acceptance criteria can check one against the other.  The golden CLI
runner at the end is shared by the pytest suite and the standard-library replay,
and `work_bounds` reads the package's work bounds from its source.
"""

import ast
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib import import_module
from pathlib import Path
from unittest import mock

import crqmult
from crqmult.cli import main
from crqmult.elements import AmbientElement, GMembership, in_G
from crqmult.groups import CRQGroupSpec, CriticalTypeData, ensure_valid
from crqmult.numth import (
    PrimeSet,
    coprime_part,
    crt_solve,
    fraction_residue,
    mod_inverse,
    prime_factors,
)
from crqmult.tables import MultTable, build_product


def is_p_integer(x, allowed):
    """True when every prime factor of |x| lies in `allowed`; +-1 always passes."""
    if x == 0:
        raise ValueError("0 is not a P-integer for any prime set")
    return coprime_part(x, allowed) == 1


def lcm_all(values):
    """Least common multiple of positive integers; empty input gives 1."""
    result = 1
    for v in values:
        if v < 1:
            raise ValueError(f"lcm_all requires positive integers, got {v}")
        result = math.lcm(result, v)
    return result


def make_type(tid, primes, rank, m, s=1):
    return CriticalTypeData(tid, PrimeSet(primes), rank, m, s)


def two_block_spec():
    return CRQGroupSpec([make_type("t1", [5], 2, 7, 2), make_type("t2", [2], 1, 7, 3)])


def blocks_of(cls, mapping):
    """Container of class cls from nested lists of ints and Fractions per type id.

    A block that is not as wide as it is long at every level is refused with
    ValueError, after every coordinate is read; a coordinate of any other
    type, a float above all, is refused with TypeError.
    """
    coords = {}
    ragged = []
    for tid, block in mapping.items():
        level = list(block)
        size = len(level)
        for _ in range(cls.depth - 1):
            level = [list(part) for part in level]
            if any(len(part) != size for part in level):
                ragged.append(tid)
                level = []
                break
            level = [x for part in level for x in part]
        for c in level:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"block {tid!r} has coordinate {c!r}, not an int or Fraction")
        den = math.lcm(*(c.denominator for c in level))
        coords[tid] = (tid, size, den, [int(c * den) for c in level])
    if ragged:
        tid = min(ragged)
        raise ValueError(f"block {tid!r} is not {coords[tid][1]} wide at every level")
    return cls(coords.values())


def support(blocks):
    """Type ids of the nonzero blocks, in the stored order."""
    return tuple(p[0] for p in blocks.parts)


def element_of(mapping):
    """AmbientElement from one list of ints and Fractions per type id."""
    return blocks_of(AmbientElement, mapping)


def table_of(mapping):
    """MultTable from one rank x rank nest of coordinate vectors per type id."""
    return blocks_of(MultTable, mapping)


def _times(factor, nested):
    if isinstance(nested, Fraction):
        return factor * nested
    return [_times(factor, x) for x in nested]


def scaled(blocks, factor):
    """blocks times a Fraction, rebuilt from the Fraction product of every coordinate."""
    return blocks_of(
        type(blocks), {tid: _times(factor, fraction_block(blocks, tid)) for tid in support(blocks)}
    )


def basis_vector(tid, rank, slot):
    """The basis vector of one type and slot, in the stored block form."""
    nums = [0] * rank
    nums[slot] = 1
    return AmbientElement(((tid, rank, 1, tuple(nums)),))


def project(spec, g, tid):
    """Component of g in the block of one type, rebuilt from its Fraction coordinates."""
    spec.data_for(tid)
    return element_of({tid: fraction_block(g, tid)})


def in_scaled_A_tau(spec, g, tid, scale):
    """True when g, supported on the block of tid, lies in scale * A_tau.

    Every coordinate over scale must have a denominator made of the type's
    infinite primes.
    """
    if scale < 1:
        raise ValueError(f"scale must be positive, got {scale}")
    data = spec.data_for(tid)
    if any(t != tid for t in support(g)):
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
    for tid in support(g):
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
    x = element_of({tid: [Fraction(n1 * data.s, data.m)] + [0] * (data.rank - 1)})
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


def table_as_element(spec, table):
    """The element of the ambient of compute_mult_group(spec).spec that a table maps to.

    A rank-r cube becomes a rank-r**3 vector in row-major order, so leaf 0,
    slot 0 of the corner, is the clipped slot.  Over the scaled basis of the
    regulator blocks of Mult G, a leaf (i, j, k) of a clipped type is divided
    by m**2 on the corner (i = j = 0), by m on the border (exactly one of i, j
    is 0) and by 1 elsewhere; unclipped types are unchanged.
    """
    blocks = {}
    for d in spec.types:
        cube = fraction_block(table, d.id)
        if not cube:
            continue
        blocks[d.id] = [
            c / d.m ** ((i == 0) + (j == 0))
            for i in range(d.rank)
            for j in range(d.rank)
            for c in cube[i][j]
        ]
    return element_of(blocks)


def element_d(spec):
    """The distinguished generator over the regulator, s/m on each clipped slot."""
    ensure_valid(spec)
    return AmbientElement((d.id, d.rank, d.m, [d.s] + [0] * (d.rank - 1)) for d in spec.clipped)


def in_g_closed_form(spec, g):
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


def ref_in_G(spec, g):
    """G-membership by its definition: the first k in 0..n-1 with g - k*d in the regulator."""
    d = element_d(spec)
    for k in range(spec.n):
        a = g - k * d
        if a.outside_regulator(spec) is None:
            return GMembership(k, a)
    return None


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


# The golden CLI runner, shared by tests/test_cli_golden.py and tests/replay_stdlib.py.

# (name, argv) of each golden case; "{name}" in an argument is the path of that input file
COMMANDS = (
    ("check-table member", ("check-table", "--spec", "{spec}", "--table", "{member}")),
    ("check-table broken", ("check-table", "--spec", "{spec}", "--table", "{broken}")),
    ("check-table unscaled", ("check-table", "--spec", "{spec}", "--table", "{unscaled}")),
    ("oracle member", ("oracle", "--spec", "{spec}", "--table", "{member}")),
    ("oracle broken", ("oracle", "--spec", "{spec}", "--table", "{broken}")),
    ("oracle unscaled", ("oracle", "--spec", "{spec}", "--table", "{unscaled}")),
    ("mult", ("mult", "--spec", "{spec}")),
    ("iterate", ("iterate", "--spec", "{spec}", "--k", "2")),
    ("coset", ("coset", "--spec", "{spec}", "--gamma", "3", "--b", "{shift}")),
    ("example27", ("example27", "--s1", "2", "--s2", "3", "--m", "7")),
    ("validate", ("validate", "--spec", "{spec}")),
    ("describe", ("describe", "--spec", "{spec}")),
    ("purity", ("purity", "--spec", "{spec}")),
    ("purity t1", ("purity", "--spec", "{spec}", "--type", "t1")),
    ("gen", ("gen", "--seed", "7")),
    ("check-table malformed", ("check-table", "--spec", "{spec}", "--table", "{malformed}")),
)
FORMATS = ("json", "text")
# the top level and every command, each pinned by its --help text
HELP_PREFIXES = (
    "",
    "validate",
    "describe",
    "mult",
    "iterate",
    "check-table",
    "oracle",
    "purity",
    "coset",
    "example27",
    "gen",
)


def run_cli(argv, inputs, directory):
    """Exit code, stdout and stderr of `main(argv)`, each input written to directory first."""
    paths = {}
    for name, data in inputs.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        paths[name] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([arg.format(**paths) for arg in argv])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def help_texts():
    """stdout of `crqmult PREFIX --help` per prefix, on a terminal 100 columns wide."""
    texts = {}
    with mock.patch.dict(os.environ, {"COLUMNS": "100"}):
        for prefix in HELP_PREFIXES:
            out = io.StringIO()
            try:
                with redirect_stdout(out):
                    main([*prefix.split(), "--help"])
            except SystemExit as exc:
                if exc.code != 0:
                    raise
            texts[prefix] = out.getvalue()
    return texts


def work_bounds():
    """(module, value) of every MAX_* constant that a module of the package assigns, by name."""
    found = {}
    for path in sorted(Path(crqmult.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for target in getattr(node, "targets", []):
                if isinstance(target, ast.Name) and target.id.startswith("MAX_"):
                    module = import_module(f"crqmult.{path.stem}")
                    found[target.id] = (path.stem, getattr(module, target.id))
    return found
