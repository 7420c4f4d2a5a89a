"""Exact arithmetic for ring multiplications on block-rigid groups with
cyclic regulator quotient.

The package models such a group as finite symbolic data, decides which
basis product tables define ring multiplications on it, and computes the
structure of the group formed by all of those multiplications.

The names below are re-exported lazily: a submodule is imported on first
access to one of its names, so `import crqmult.cli` loads only what the
command needs.  `_EXPORTS` states the public surface once, each name under
its module, and `__all__` is derived from it.
"""

from importlib import import_module

_EXPORTS = {
    "numth": (
        "LimitError",
        "PrimeSet",
        "condition_m_check",
        "crt_solve",
        "mod_inverse",
        "p0_inverse",
    ),
    "groups": (
        "CRQGroupSpec",
        "CriticalTypeData",
        "GenBounds",
        "MainDecomposition",
        "Violation",
        "main_decomposition",
        "random_spec",
        "spec_from_dict",
        "spec_from_json",
        "spec_to_dict",
        "spec_to_json",
        "validate_spec",
    ),
    "elements": (
        "AmbientElement",
        "GMembership",
        "element_from_dict",
        "in_G",
        "purity_oracle",
    ),
    "tables": (
        "MembershipFailure",
        "MembershipVerdict",
        "MultTable",
        "closure_oracle",
        "decide_membership",
        "generator_x",
        "in_M2",
        "table_from_dict",
        "table_to_dict",
    ),
    "multgroup": (
        "CosetReport",
        "CrossBasisReport",
        "MultGroupDescriptor",
        "RegulatorBlock",
        "compute_mult_group",
        "coset_relation",
        "cross_basis_example",
        "iterate_mult",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
