"""Independent reference routes that the library no longer carries.

Each function computes a fact by a different route from the library's own,
so acceptance criteria can check one against the other.
"""

from crqmult.numth import is_p_integer, prime_factors


def euler_phi(m):
    """Count of residues in [1, m] coprime to m."""
    if m < 1:
        raise ValueError(f"euler_phi requires a positive integer, got {m}")
    result = m
    for p in prime_factors(m) if m > 1 else ():
        result -= result // p
    return result


def border_scaling_check(spec, table):
    """Row 0 and column 0 of every clipped type are m-scaled.

    Tests c/m in the localization of the type for every border coordinate c,
    where the library reduces coordinates modulo m instead.  Every table that
    defines a multiplication satisfies this.
    """
    for d in spec.types:
        if d.m == 1:
            continue
        mat = table.matrix(d.id, d.rank)
        border = list(mat[0]) + [row[0] for row in mat]
        for vec in border:
            if not all(is_p_integer((c / d.m).denominator, d.inf_primes) for c in vec):
                return False
    return True
