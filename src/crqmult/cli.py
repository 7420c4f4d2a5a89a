"""Command line interface for the group and multiplication-table toolkit.

Exit codes: 0 for success and true verdicts, 1 for false verdicts, 2 for
malformed input, domain errors or a number past a work bound (a LimitError,
whose JSON error names the bound).  All randomness is driven by --seed, and
structured output is byte-identical for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .groups import (
    CRQGroupSpec,
    GenBounds,
    MainDecomposition,
    ensure_valid,
    main_decomposition,
    random_spec,
    read_json,
    spec_from_dict,
    spec_to_dict,
    spec_to_json,
    validate_spec,
)
from .numth import LimitError

# Each handler imports the table and multiplication-group layers it uses, so a
# run of `validate`, `describe` or `gen` does not load them.  TYPE_CHECKING is
# true only for type checkers, so typing stays unloaded at run time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Optional

    from .multgroup import CosetReport, CrossBasisReport, MultGroupDescriptor
    from .tables import MembershipVerdict

    # what every handler returns: verdict, report (None when nothing is emitted), text lines
    Result = tuple[bool, Optional[dict], list[str]]


def _emit(report: dict, fmt: str, lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _load_json(path: str) -> object:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return read_json(handle.read())
        except RecursionError:
            raise ValueError(f"{path} is nested too deeply to parse") from None


def _load_blocks(spec: CRQGroupSpec, path: str, parse: Callable, key: Optional[str] = None):
    """Parse the document at path, then refuse a block of an unknown type or wrong size.

    The containers drop all-zero blocks, so their own shape check never sees
    those; this reads the document's blocks (its `key` entry, or the whole
    document), after the spec is found valid.
    """
    doc = _load_json(path)
    parsed = parse(doc)
    blocks = doc if key is None else doc[key]
    ensure_valid(spec)
    for tid in sorted(blocks):
        rank = spec.data_for(tid).rank
        if len(blocks[tid]) != rank:
            raise ValueError(f"block {tid!r} has size {len(blocks[tid])}, expected {rank}")
    return parsed


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


def _decomposition_to_dict(decomposition: MainDecomposition) -> dict:
    return {
        "clipped": list(decomposition.clipped),
        "complement": dict(decomposition.complement),
    }


def _descriptor_to_dict(desc: MultGroupDescriptor) -> dict:
    from .tables import table_to_dict

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
        "decomposition": _decomposition_to_dict(desc.decomposition),
        "basis": None
        if desc.basis is None
        else {tid: table_to_dict(table) for tid, table in desc.basis},
        "generator": None if desc.generator is None else table_to_dict(desc.generator),
    }


def _coset_report_to_dict(report: CosetReport, gamma: int, seed: int) -> dict:
    from .tables import table_to_dict

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
        "cases": [{name: getattr(c, name) for name in c.__match_args__} for c in report.cases],
        "intersection_is_regulator": report.intersection_is_regulator,
    }


def _cmd_validate(args: argparse.Namespace, spec: CRQGroupSpec) -> Result:
    violations = validate_spec(spec)
    report = {
        "valid": not violations,
        "violations": [
            {"code": v.code, "subjects": list(v.subjects), "detail": v.detail}
            for v in violations
        ],
    }
    lines = [f"spec is {'valid' if not violations else 'invalid'}"]
    lines.extend(f"  {v}" for v in violations)
    return not violations, report, lines


def _cmd_describe(args: argparse.Namespace, spec: CRQGroupSpec) -> Result:
    decomposition = main_decomposition(spec)
    report = {
        "spec": spec_to_dict(spec),
        "regulator_index": spec.n,
        "clipped_types": list(spec.t0_ids),
        "decomposition": _decomposition_to_dict(decomposition),
    }
    lines = [f"regulator index: {spec.n}"]
    lines.extend(_spec_summary_lines(spec))
    lines.append(f"clipped types: {', '.join(spec.t0_ids) or '(none)'}")
    lines.append(
        "complement ranks: "
        + ", ".join(f"{tid}:{k}" for tid, k in decomposition.complement)
    )
    return True, report, lines


def _cmd_mult(args: argparse.Namespace, spec: CRQGroupSpec) -> Result:
    from .multgroup import compute_mult_group

    desc = compute_mult_group(spec)
    lines = ["multiplication group structure:"]
    lines.extend(_spec_summary_lines(desc.spec))
    lines.append(f"regulator index: {desc.spec.n}")
    return True, _descriptor_to_dict(desc), lines


def _cmd_iterate(args: argparse.Namespace, spec: CRQGroupSpec) -> Result:
    from .multgroup import iterate_mult

    desc = iterate_mult(spec, args.k)
    lines = [f"structure after {args.k} application(s):"]
    lines.extend(_spec_summary_lines(desc.spec))
    if desc.basis is None:
        lines.append("basis tables omitted at this depth")
    return True, _descriptor_to_dict(desc), lines


def _cmd_membership(args: argparse.Namespace, spec: CRQGroupSpec) -> Result:
    from .tables import decide_membership, table_from_dict

    table = _load_blocks(spec, args.table, table_from_dict, "blocks")
    verdict = decide_membership(spec, table)
    if verdict.member:
        lines = [
            "member: defines a multiplication, "
            f"alpha == {verdict.alpha[0]} (mod {verdict.alpha[1]})"
        ]
    else:
        lines = [f"not a member: {verdict.failure.code}: {verdict.failure.detail}"]
    return verdict.member, _verdict_to_dict(verdict), lines


def _cmd_oracle(args: argparse.Namespace, spec: CRQGroupSpec) -> Result:
    from .tables import closure_oracle, table_from_dict

    table = _load_blocks(spec, args.table, table_from_dict, "blocks")
    closed = closure_oracle(spec, table)
    lines = [
        "closure oracle: products stay in the group"
        if closed
        else "closure oracle: some product escapes the group"
    ]
    return closed, {"defines_multiplication": closed}, lines


def _cmd_purity(args: argparse.Namespace, spec: CRQGroupSpec) -> Result:
    from .elements import purity_oracle

    ids = [args.type] if args.type is not None else list(spec.type_ids)
    results = {tid: purity_oracle(spec, tid) for tid in ids}
    lines = [
        f"  block {tid}: {'pure' if ok else 'not pure'}" for tid, ok in results.items()
    ]
    return all(results.values()), {"pure": results}, lines


def _cmd_coset(args: argparse.Namespace, spec: CRQGroupSpec) -> Result:
    from .elements import element_from_dict
    from .multgroup import coset_relation

    shift = _load_blocks(spec, args.b, element_from_dict)
    report = coset_relation(spec, args.gamma, shift, samples=args.samples, seed=args.seed)
    if not report.applicable:
        lines = [f"not applicable: {report.reason}"]
        ok = False
    else:
        ok = bool(report.witness_doubly_scaled and report.verdicts_agree)
        lines = [
            f"shifted coefficients: {dict(report.s_prime)}",
            f"witness doubly scaled: {report.witness_doubly_scaled}",
            f"verdicts agree on {report.samples_checked} sampled tables: "
            f"{report.verdicts_agree}",
        ]
    return ok, _coset_report_to_dict(report, args.gamma, args.seed), lines


def _cmd_example27(args: argparse.Namespace, _: None) -> Result:
    from .multgroup import cross_basis_example

    report = cross_basis_example(args.s1, args.s2, args.m, seed=args.seed)
    lines = [
        f"types: {list(report.inf_primes_1)} and {list(report.inf_primes_2)}",
        f"witness values tested: 1..{args.m - 1}",
        "intersection of the two membership sets is exactly the doubly scaled tables: "
        f"{report.intersection_is_regulator}",
    ]
    return report.intersection_is_regulator, _cross_report_to_dict(report, args.seed), lines


def _cmd_gen(args: argparse.Namespace, _: None) -> Result:
    """Write the spec to --out and report it, or write its text alone to stdout."""
    bounds = GenBounds(
        max_types=args.max_types, max_rank=args.max_rank, max_m=args.max_m
    )
    spec = random_spec(args.seed, bounds)
    text = spec_to_json(spec)
    if not args.out:
        sys.stdout.write(text)
        return True, None, []
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    report = {"seed": args.seed, "out": args.out, "spec": spec_to_dict(spec)}
    return True, report, [f"spec written to {args.out}"]


class _Parser(argparse.ArgumentParser):
    """Parser whose refusals raise ValueError, so main reports them as one line."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def _argv_format(argv: Optional[list[str]]) -> Optional[str]:
    """The --format that argv names, read as argparse reads it; None when it names none."""
    parser = _Parser(add_help=False)
    parser.add_argument("--format", nargs="?")
    return parser.parse_known_args(argv)[0].format


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crqmult",
        description="Decide and describe ring multiplications on block-rigid "
        "groups with cyclic regulator quotient.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, handler: Callable, with_spec: bool = True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=("text", "json"), default="text", help="output format")
        if with_spec:
            p.add_argument("--spec", required=True)
        p.set_defaults(handler=handler)
        return p

    command("validate", "validate a spec file", _cmd_validate)
    command("describe", "invariants and decomposition", _cmd_describe)
    command("mult", "structure of the multiplication group", _cmd_mult)
    p = command("iterate", "iterated multiplication groups", _cmd_iterate)
    p.add_argument("--k", type=int, required=True, help="number of applications")
    p = command("check-table", "membership decision for a table", _cmd_membership)
    p.add_argument("--table", required=True)
    p = command("oracle", "direct closure check for a table", _cmd_oracle)
    p.add_argument("--table", required=True)
    p = command("purity", "purity of regulator blocks", _cmd_purity)
    p.add_argument("--type", default=None, help="restrict to one type id")
    p = command("coset", "compare two presentations", _cmd_coset)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--b", required=True, help="shift element file")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p = command("example27", "two-basis intersection construction", _cmd_example27, with_spec=False)
    p.add_argument("--s1", type=int, required=True)
    p.add_argument("--s2", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p = command("gen", "generate a random valid spec", _cmd_gen, with_spec=False)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-types", type=int, default=3)
    p.add_argument("--max-rank", type=int, default=3)
    p.add_argument("--max-m", type=int, default=36)
    p.add_argument("--out", default=None)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Parse argv, load --spec, run the command, emit its report, return its exit code."""
    args = None
    try:
        args = _build_parser().parse_args(argv)
        spec = spec_from_dict(_load_json(args.spec)) if "spec" in args else None
        ok, report, lines = args.handler(args, spec)
        if report is not None:
            _emit({"command": args.command, **report}, args.format, lines)
        return 0 if ok else 1
    except (ValueError, OSError) as exc:
        if (_argv_format(argv) if args is None else args.format) == "json":
            error: dict = {"error": str(exc)}
            if isinstance(exc, LimitError):
                error["limit"] = {"name": exc.name, "value": exc.value, "bound": exc.bound}
            print(json.dumps(error, sort_keys=True), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
