"""Command line interface for the group and multiplication-table toolkit.

Exit codes: 0 for success and true verdicts, 1 for false verdicts, 2 for
malformed input or domain errors.  All randomness is driven by --seed, and
structured output is byte-identical for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .elements import element_from_dict
from .groups import (
    CRQGroupSpec,
    GenBounds,
    main_decomposition,
    random_spec,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
)
from .multgroup import (
    CosetReport,
    CrossBasisReport,
    MultGroupDescriptor,
    RankLimitError,
    compute_mult_group,
    coset_relation,
    cross_basis_example,
    iterate_mult,
)
from .tables import (
    MembershipVerdict,
    closure_oracle,
    decide_membership,
    table_from_dict,
    table_to_dict,
)
from .elements import purity_oracle

__all__ = ["main"]


def _emit(report: dict, fmt: str, lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _load_json(path: str) -> object:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_spec(path: str) -> CRQGroupSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return spec_from_json(handle.read())


def _spec_summary_lines(spec: CRQGroupSpec) -> list[str]:
    lines = []
    for d in spec.types:
        primes = ", ".join(str(p) for p in d.inf_primes)
        lines.append(
            f"  type {d.id}: inf primes {{{primes}}}, rank {d.rank}, m {d.m}, s {d.s}"
        )
    return lines


def _verdict_to_dict(verdict: MembershipVerdict) -> dict:
    out: dict = {"member": verdict.member, "alpha": None, "failure": None}
    if verdict.alpha is not None:
        out["alpha"] = {"residue": verdict.alpha[0], "modulus": verdict.alpha[1]}
    if verdict.failure is not None:
        out["failure"] = {
            "code": verdict.failure.code,
            "type": verdict.failure.type_id,
            "entry": list(verdict.failure.entry) if verdict.failure.entry else None,
            "detail": verdict.failure.detail,
        }
    return out


def _descriptor_to_dict(desc: MultGroupDescriptor) -> dict:
    return {
        "depth": desc.depth,
        "spec": spec_to_dict(desc.spec),
        "regulator": [
            {
                "type": block.type_id,
                "rank": block.rank,
                "corner_scale": block.corner_scale,
                "border_scale": block.border_scale,
            }
            for block in desc.regulator
        ],
        "decomposition": {
            "clipped": list(desc.decomposition.clipped),
            "complement": {tid: k for tid, k in desc.decomposition.complement},
        },
        "basis": None
        if desc.basis is None
        else {tid: table_to_dict(table) for tid, table in desc.basis},
        "generator": None if desc.generator is None else table_to_dict(desc.generator),
    }


def _coset_report_to_dict(report: CosetReport, gamma: int, seed: int) -> dict:
    out: dict = {
        "gamma": gamma,
        "seed": seed,
        "gamma_constraint": "gcd(gamma, regulator index) == 1",
        "applicable": report.applicable,
        "reason": report.reason,
        "s_prime": None,
        "witness_doubly_scaled": report.witness_doubly_scaled,
        "samples_checked": report.samples_checked,
        "verdicts_agree": report.verdicts_agree,
        "witness": None,
    }
    if report.s_prime is not None:
        out["s_prime"] = {tid: s for tid, s in report.s_prime}
    if report.relation is not None:
        out["witness"] = table_to_dict(report.relation.witness)
        out["gamma_inverse"] = report.relation.gamma_inverse
    return out


def _cross_report_to_dict(report: CrossBasisReport, seed: int) -> dict:
    return {
        "s1": report.s1,
        "s2": report.s2,
        "m": report.m,
        "seed": seed,
        "inf_primes_1": list(report.inf_primes_1),
        "inf_primes_2": list(report.inf_primes_2),
        "doubly_scaled_member_both": report.doubly_scaled_member_both,
        "cases": [
            {
                "alpha": c.alpha,
                "member_first": c.member_first,
                "rejected_second": c.rejected_second,
                "member_second": c.member_second,
                "rejected_first": c.rejected_first,
                "oracles_consistent": c.oracles_consistent,
            }
            for c in report.cases
        ],
        "intersection_is_regulator": report.intersection_is_regulator,
    }


def _cmd_validate(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    violations = spec.violations
    report = {
        "command": "validate",
        "valid": not violations,
        "violations": [
            {"code": v.code, "subjects": list(v.subjects), "detail": v.detail}
            for v in violations
        ],
    }
    lines = [f"spec is {'valid' if not violations else 'invalid'}"]
    lines.extend(f"  {v}" for v in violations)
    _emit(report, args.format, lines)
    return 0 if not violations else 1


def _cmd_describe(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    decomposition = main_decomposition(spec)
    report = {
        "command": "describe",
        "spec": spec_to_dict(spec),
        "regulator_index": spec.n,
        "clipped_types": list(spec.t0_ids),
        "decomposition": {
            "clipped": list(decomposition.clipped),
            "complement": {tid: k for tid, k in decomposition.complement},
        },
    }
    lines = [f"regulator index: {spec.n}"]
    lines.extend(_spec_summary_lines(spec))
    lines.append(f"clipped types: {', '.join(spec.t0_ids) or '(none)'}")
    lines.append(
        "complement ranks: "
        + ", ".join(f"{tid}:{k}" for tid, k in decomposition.complement)
    )
    _emit(report, args.format, lines)
    return 0


def _cmd_mult(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    desc = compute_mult_group(spec)
    report = {"command": "mult", **_descriptor_to_dict(desc)}
    lines = ["multiplication group structure:"]
    lines.extend(_spec_summary_lines(desc.spec))
    lines.append(f"regulator index: {desc.spec.n}")
    _emit(report, args.format, lines)
    return 0


def _cmd_iterate(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    desc = iterate_mult(spec, args.k, max_rank=args.max_rank)
    report = {"command": "iterate", **_descriptor_to_dict(desc)}
    lines = [f"structure after {args.k} application(s):"]
    lines.extend(_spec_summary_lines(desc.spec))
    if desc.basis is None:
        lines.append("basis tables omitted at this depth")
    _emit(report, args.format, lines)
    return 0


def _cmd_check_table(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    table = table_from_dict(_load_json(args.table))
    verdict = decide_membership(spec, table)
    report = {"command": "check-table", **_verdict_to_dict(verdict)}
    if verdict.member:
        lines = [
            "member: defines a multiplication, "
            f"alpha == {verdict.alpha[0]} (mod {verdict.alpha[1]})"
        ]
    else:
        lines = [f"not a member: {verdict.failure.code}: {verdict.failure.detail}"]
    _emit(report, args.format, lines)
    return 0 if verdict.member else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    table = table_from_dict(_load_json(args.table))
    closed = closure_oracle(spec, table)
    report = {"command": "oracle", "defines_multiplication": closed}
    lines = [
        "closure oracle: products stay in the group"
        if closed
        else "closure oracle: some product escapes the group"
    ]
    _emit(report, args.format, lines)
    return 0 if closed else 1


def _cmd_purity(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    ids = [args.type] if args.type else list(spec.type_ids)
    results = {tid: purity_oracle(spec, tid) for tid in ids}
    report = {"command": "purity", "pure": results}
    lines = [
        f"  block {tid}: {'pure' if ok else 'not pure'}" for tid, ok in results.items()
    ]
    _emit(report, args.format, lines)
    return 0 if all(results.values()) else 1


def _cmd_coset(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    shift = element_from_dict(_load_json(args.b))
    report_data = coset_relation(
        spec, args.gamma, shift, samples=args.samples, seed=args.seed
    )
    report = {"command": "coset", **_coset_report_to_dict(report_data, args.gamma, args.seed)}
    if not report_data.applicable:
        lines = [f"not applicable: {report_data.reason}"]
        ok = False
    else:
        ok = bool(report_data.witness_doubly_scaled and report_data.verdicts_agree)
        lines = [
            f"shifted coefficients: {dict(report_data.s_prime)}",
            f"witness doubly scaled: {report_data.witness_doubly_scaled}",
            f"verdicts agree on {report_data.samples_checked} sampled tables: "
            f"{report_data.verdicts_agree}",
        ]
    _emit(report, args.format, lines)
    return 0 if ok else 1


def _cmd_example27(args: argparse.Namespace) -> int:
    report_data = cross_basis_example(args.s1, args.s2, args.m, seed=args.seed)
    report = {"command": "example27", **_cross_report_to_dict(report_data, args.seed)}
    lines = [
        f"types: {list(report_data.inf_primes_1)} and {list(report_data.inf_primes_2)}",
        f"witness values tested: 1..{args.m - 1}",
        "intersection of the two membership sets is exactly the doubly scaled tables: "
        f"{report_data.intersection_is_regulator}",
    ]
    _emit(report, args.format, lines)
    return 0 if report_data.intersection_is_regulator else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    bounds = GenBounds(
        max_types=args.max_types, max_rank=args.max_rank, max_m=args.max_m
    )
    spec = random_spec(args.seed, bounds)
    text = spec_to_json(spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        _emit(
            {"command": "gen", "seed": args.seed, "out": args.out, "spec": spec_to_dict(spec)},
            args.format,
            [f"spec written to {args.out}"],
        )
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crqmult",
        description="Decide and describe ring multiplications on block-rigid "
        "groups with cyclic regulator quotient.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="validate a spec file")
    p.add_argument("--spec", required=True)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("describe", parents=[common], help="invariants and decomposition")
    p.add_argument("--spec", required=True)
    p.set_defaults(handler=_cmd_describe)

    p = sub.add_parser("mult", parents=[common], help="structure of the multiplication group")
    p.add_argument("--spec", required=True)
    p.set_defaults(handler=_cmd_mult)

    p = sub.add_parser("iterate", parents=[common], help="iterated multiplication groups")
    p.add_argument("--spec", required=True)
    p.add_argument("--k", type=int, required=True, help="number of applications")
    p.add_argument("--max-rank", type=int, default=10**18, help="symbolic rank bound")
    p.set_defaults(handler=_cmd_iterate)

    p = sub.add_parser("check-table", parents=[common], help="membership decision for a table")
    p.add_argument("--spec", required=True)
    p.add_argument("--table", required=True)
    p.set_defaults(handler=_cmd_check_table)

    p = sub.add_parser("oracle", parents=[common], help="direct closure check for a table")
    p.add_argument("--spec", required=True)
    p.add_argument("--table", required=True)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("purity", parents=[common], help="purity of regulator blocks")
    p.add_argument("--spec", required=True)
    p.add_argument("--type", default=None, help="restrict to one type id")
    p.set_defaults(handler=_cmd_purity)

    p = sub.add_parser("coset", parents=[common], help="compare two presentations")
    p.add_argument("--spec", required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--b", required=True, help="shift element file")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_coset)

    p = sub.add_parser(
        "example27", parents=[common], help="two-basis intersection construction"
    )
    p.add_argument("--s1", type=int, required=True)
    p.add_argument("--s2", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_example27)

    p = sub.add_parser("gen", parents=[common], help="generate a random valid spec")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-types", type=int, default=3)
    p.add_argument("--max-rank", type=int, default=3)
    p.add_argument("--max-m", type=int, default=36)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_gen)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, RankLimitError, json.JSONDecodeError) as exc:
        if getattr(args, "format", "text") == "json":
            print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
