"""Seeded CLI invocations with the results the library gives for them in-process.

One cycle writes its own files and runs thirteen commands: check-table and
oracle on a member and a non-member table, validate on a valid and an
invalid spec, describe, mult, iterate --k 2, purity, coset, example27, and a
malformed table that must end in exit code 2.  Each case knows its expected
exit code and checks every field of the JSON it gets back.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from inputs import (
    BROKEN_CORNER,
    MEMBER,
    SPEC_SEED_STRIDE,
    UNSCALED_BORDER,
    spec_dict_from_library,
    stratum_table,
)

COMMANDS_PER_CYCLE = 13


@dataclass(frozen=True)
class CliCase:
    """One invocation: arguments after `-m crqmult.cli`, and how to judge it."""

    name: str
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[dict], bool]  # applied to the parsed JSON payload


def _write(path: Path, data) -> str:
    path.write_text(data if isinstance(data, str) else json.dumps(data), encoding="utf-8")
    return str(path)


def _cycle_spec(crq, rng: random.Random, tag: str) -> dict:
    """A generator spec with a nontrivial regulator quotient, so every stratum exists."""
    while True:
        spec = crq.groups.random_spec(
            rng.randrange(SPEC_SEED_STRIDE), crq.groups.GenBounds(3, 3, 36)
        )
        if spec.n > 1:
            return spec_dict_from_library(spec, tag)


def _coset_parameters(rng: random.Random, spec: dict, n: int) -> tuple[int, dict]:
    """gamma coprime to n and a shift on slot 0 of each clipped type.

    The shift k keeps gamma * s + m * k free of the type's infinite primes,
    so the shifted generator again has a standard representation.
    """
    gamma = rng.randrange(2, 60)
    while math.gcd(gamma, n) != 1:
        gamma = rng.randrange(2, 60)
    shift = {}
    for t in spec["types"]:
        if t["m"] == 1:
            continue
        for k in rng.sample(range(20), 20):
            if all((gamma * t["s"] + t["m"] * k) % p for p in t["inf_primes"]):
                break
        shift[t["id"]] = [str(k)] + ["0"] * (t["rank"] - 1)
    return gamma, shift


def _example27_parameters(rng: random.Random) -> tuple[int, int, int]:
    while True:
        m = rng.choice((5, 7, 11, 13))
        s1, s2 = rng.randrange(2, 40), rng.randrange(2, 40)
        if (
            math.gcd(s1, s2) == 1
            and s1 % m
            and s2 % m
            and (s1 * s1 - s2 * s2) % m
        ):
            return s1, s2, m


def cycle_cases(crq, seed: int, cycle: int, workdir: Path) -> list[CliCase]:
    """The thirteen cases of one cycle, with files written under workdir."""
    groups, tables, multgroup, elements = crq.groups, crq.tables, crq.multgroup, crq.elements
    rng = random.Random(f"cli_oneshot/{seed}/{cycle}")
    spec_dict = _cycle_spec(crq, rng, f"{seed}.{cycle}")
    spec_text = json.dumps(spec_dict)
    spec = groups.spec_from_json(spec_text)
    n = spec.n
    prefix = workdir / f"c{cycle}"
    spec_path = _write(prefix.with_name(prefix.name + "-spec.json"), spec_text)

    def path(name: str) -> Path:
        return prefix.with_name(f"{prefix.name}-{name}.json")

    member = stratum_table(rng, spec_dict, n, MEMBER)
    broken = stratum_table(rng, spec_dict, n, BROKEN_CORNER)
    oracle_member = stratum_table(rng, spec_dict, n, MEMBER)
    unscaled = stratum_table(rng, spec_dict, n, UNSCALED_BORDER)
    paths = {
        name: _write(path(name), case.text)
        for name, case in (
            ("member", member),
            ("broken", broken),
            ("oracle-member", oracle_member),
            ("unscaled", unscaled),
        )
    }

    # s = m shares every factor with m, so this spec breaks coprimality only
    invalid = json.loads(spec_text)
    clipped = next(t for t in invalid["types"] if t["m"] > 1)
    clipped["s"] = clipped["m"]
    invalid_path = _write(path("invalid"), invalid)
    invalid_codes = [v.code for v in groups.validate_spec(groups.spec_from_dict(invalid))]

    gamma, shift = _coset_parameters(rng, spec_dict, n)
    shift_path = _write(path("shift"), shift)
    s1, s2, m = _example27_parameters(rng)
    malformed_path = _write(path("malformed"), {"block": {}})

    def table(case):
        return tables.table_from_dict(json.loads(case.text))

    def verdict_payload(verdict) -> dict:
        failure = verdict.failure
        return {
            "command": "check-table",
            "member": verdict.member,
            "alpha": None
            if verdict.alpha is None
            else {"residue": verdict.alpha[0], "modulus": verdict.alpha[1]},
            "failure": None
            if failure is None
            else {
                "code": failure.code,
                "type": failure.type_id,
                "entry": list(failure.entry) if failure.entry else None,
                "detail": failure.detail,
            },
        }

    v_member = tables.decide_membership(spec, table(member))
    v_broken = tables.decide_membership(spec, table(broken))
    expect_member = verdict_payload(v_member)
    expect_broken = verdict_payload(v_broken)
    decisions_match = (
        v_member.member
        and v_member.alpha == (member.alpha, n)
        and not v_broken.member
        and v_broken.failure is not None
    )
    oracle_member_ok = tables.closure_oracle(spec, table(oracle_member)) is True
    oracle_unscaled_ok = tables.closure_oracle(spec, table(unscaled)) is False

    decomposition = groups.main_decomposition(spec)
    expect_describe = {
        "command": "describe",
        "spec": groups.spec_to_dict(spec),
        "regulator_index": n,
        "clipped_types": list(spec.t0_ids),
        "decomposition": {
            "clipped": list(decomposition.clipped),
            "complement": dict(decomposition.complement),
        },
    }

    desc = multgroup.compute_mult_group(spec)
    ranks_cubed = all(
        after.rank == before["rank"] ** 3 and after.m == before["m"]
        for before, after in zip(
            sorted(spec_dict["types"], key=lambda t: t["id"]), desc.spec.types
        )
    )

    expect_mult = {
        "spec": groups.spec_to_dict(desc.spec),
        "generator": tables.table_to_dict(desc.generator),
        "basis": {tid: tables.table_to_dict(tb) for tid, tb in desc.basis},
    }

    def mult_ok(out: dict) -> bool:
        return (
            ranks_cubed
            and out["depth"] == 1
            and all(out[key] == value for key, value in expect_mult.items())
        )

    deep_spec = groups.spec_to_dict(multgroup.iterate_mult(spec, 2).spec)

    def iterate_ok(out: dict) -> bool:
        return (
            out["depth"] == 2
            and out["spec"] == deep_spec
            and out["basis"] is None
            and all(b["rank"] == t["rank"] ** 9 for b, t in zip(out["regulator"], spec_dict["types"]))
        )

    purity = {tid: elements.purity_oracle(spec, tid) for tid in spec.type_ids}
    coset = multgroup.coset_relation(spec, gamma, elements.element_from_dict(shift), seed=0)
    coset_witness = tables.table_to_dict(coset.relation.witness) if coset.relation else None

    def coset_ok(out: dict) -> bool:
        return (
            coset.applicable
            and coset.verdicts_agree
            and coset.witness_doubly_scaled
            and out["applicable"] is True
            and out["verdicts_agree"] is True
            and out["witness_doubly_scaled"] is True
            and out["samples_checked"] == coset.samples_checked
            and out["s_prime"] == dict(coset.s_prime)
            and out["gamma_inverse"] == coset.relation.gamma_inverse
            and out["witness"] == coset_witness
        )

    cross = multgroup.cross_basis_example(s1, s2, m, seed=0)

    def example27_ok(out: dict) -> bool:
        return (
            cross.intersection_is_regulator
            and out["intersection_is_regulator"] is True
            and out["inf_primes_1"] == list(cross.inf_primes_1)
            and out["inf_primes_2"] == list(cross.inf_primes_2)
            and [c["alpha"] for c in out["cases"]] == [c.alpha for c in cross.cases]
            and all(all(v for k, v in c.items() if k != "alpha") for c in out["cases"])
        )

    def args(*items: str) -> tuple[str, ...]:
        return (*items, "--format", "json")

    spec_arg = ("--spec", spec_path)
    return [
        CliCase(
            "check_member",
            args("check-table", *spec_arg, "--table", paths["member"]),
            0,
            lambda out: decisions_match and out == expect_member,
        ),
        CliCase(
            "check_nonmember",
            args("check-table", *spec_arg, "--table", paths["broken"]),
            1,
            lambda out: decisions_match and out == expect_broken,
        ),
        CliCase(
            "oracle_member",
            args("oracle", *spec_arg, "--table", paths["oracle-member"]),
            0,
            lambda out: oracle_member_ok
            and out == {"command": "oracle", "defines_multiplication": True},
        ),
        CliCase(
            "oracle_nonmember",
            args("oracle", *spec_arg, "--table", paths["unscaled"]),
            1,
            lambda out: oracle_unscaled_ok
            and out == {"command": "oracle", "defines_multiplication": False},
        ),
        CliCase(
            "validate_valid",
            args("validate", *spec_arg),
            0,
            lambda out: out == {"command": "validate", "valid": True, "violations": []},
        ),
        CliCase(
            "validate_invalid",
            args("validate", "--spec", invalid_path),
            1,
            lambda out: invalid_codes == ["S_M_NOT_COPRIME"]
            and out["valid"] is False
            and [v["code"] for v in out["violations"]] == invalid_codes,
        ),
        CliCase("describe", args("describe", *spec_arg), 0, lambda out: out == expect_describe),
        CliCase("mult", args("mult", *spec_arg), 0, mult_ok),
        CliCase("iterate", args("iterate", *spec_arg, "--k", "2"), 0, iterate_ok),
        CliCase(
            "purity",
            args("purity", *spec_arg),
            0,
            lambda out: all(purity.values()) and out == {"command": "purity", "pure": purity},
        ),
        CliCase(
            "coset",
            args("coset", *spec_arg, "--gamma", str(gamma), "--b", shift_path),
            0,
            coset_ok,
        ),
        CliCase(
            "example27",
            args("example27", "--s1", str(s1), "--s2", str(s2), "--m", str(m)),
            0,
            example27_ok,
        ),
        CliCase(
            "malformed",
            args("check-table", *spec_arg, "--table", malformed_path),
            2,
            lambda out: set(out) == {"error"} and "blocks" in out["error"],
        ),
    ]


def judge(case: CliCase, code: int, stdout: str, stderr: str) -> bool:
    """True when exit code, stream contents and every JSON field are as expected."""
    if code != case.exit_code or "Traceback" in stderr:
        return False
    text = stderr if case.exit_code == 2 else stdout
    if case.exit_code == 2 and (stdout or text.count("\n") != 1):
        return False
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return False
    return isinstance(payload, dict) and case.check(payload)
