"""Exact arithmetic for ring multiplications on block-rigid groups with
cyclic regulator quotient.

The package models such a group as finite symbolic data, decides which
basis product tables define ring multiplications on it, and computes the
structure of the group formed by all of those multiplications.
"""

from .numth import (
    PrimeSet,
    condition_m_check,
    crt_solve,
    gcd,
    is_p_integer,
    lcm_all,
    mod_inverse,
    p0_inverse,
)
from .groups import (
    CRQGroupSpec,
    CriticalTypeData,
    GenBounds,
    GenerationError,
    IdempotentType,
    MainDecomposition,
    Violation,
    main_decomposition,
    random_spec,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
    validate_spec,
)
from .elements import (
    AmbientElement,
    GMembership,
    basis_element,
    element_d,
    element_from_dict,
    element_to_dict,
    in_G,
    in_scaled_A_tau,
    order_mod_A,
    project,
    purity_oracle,
    purity_witness,
)
from .tables import (
    MembershipFailure,
    MembershipVerdict,
    MultTable,
    build_product,
    closure_oracle,
    decide_membership,
    generator_x,
    in_M1,
    in_M2,
    table_from_dict,
    table_to_dict,
)
from .multgroup import (
    CosetReport,
    CrossBasisReport,
    MultGroupDescriptor,
    RankLimitError,
    RegulatorBlock,
    compute_mult_group,
    coset_relation,
    cross_basis_example,
    iterate_mult,
)

__version__ = "0.1.0"
