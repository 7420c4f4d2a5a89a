"""Command line behavior: exit codes, formats, and determinism."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from crqmult.cli import main
from crqmult.elements import MAX_SCAN_INDEX
from crqmult.groups import MAX_TYPES, spec_from_json, spec_to_json
from crqmult.numth import is_prime
from crqmult.tables import (
    sample_broken_corner_table,
    sample_member_table,
    table_to_dict,
)

# rank 2 at t1, so deep iterates overflow the rank bound
TWO_BLOCK_SPEC = {
    "types": [
        {"id": "t1", "inf_primes": [5], "rank": 2, "m": 7, "s": 2},
        {"id": "t2", "inf_primes": [2], "rank": 1, "m": 7, "s": 3},
    ]
}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    assert main(["gen", "--seed", "7", "--out", str(path)]) == 0
    return path


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_gen_is_deterministic(tmp_path, capsys):
    assert main(["gen", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--seed", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second
    spec = spec_from_json(first)
    assert spec_to_json(spec) == first
    assert main(["gen", "--seed", "4"]) == 0
    assert capsys.readouterr().out != first


def test_gen_writes_file(spec_file):
    spec = spec_from_json(spec_file.read_text(encoding="utf-8"))
    assert len(spec.types) >= 1


def test_validate_valid_and_invalid(tmp_path, spec_file, capsys):
    assert main(["validate", "--spec", str(spec_file)]) == 0
    out = capsys.readouterr().out
    assert "valid" in out

    # loads fine but fails the shared prime power requirement
    bad = write_json(
        tmp_path / "bad.json",
        {"types": [{"id": "t1", "inf_primes": [5], "rank": 1, "m": 7, "s": 1}]},
    )
    assert main(["validate", "--spec", bad, "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is False
    assert report["violations"][0]["code"] == "CONDITION_M_FAILED"


def test_validate_missing_file_is_an_input_error(tmp_path, capsys):
    rc = main(["validate", "--spec", str(tmp_path / "none.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_validate_garbage_file(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["validate", "--spec", str(path)]) == 2
    assert capsys.readouterr().err


def test_describe_json(spec_file, capsys):
    assert main(["describe", "--spec", str(spec_file), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["regulator_index"] >= 1
    assert set(report["decomposition"]["complement"]) == {
        t["id"] for t in report["spec"]["types"]
    }


def test_check_table_member_and_not(tmp_path, spec_file, capsys):
    spec = spec_from_json(spec_file.read_text(encoding="utf-8"))
    rng = random.Random(1)
    member, alpha = sample_member_table(spec, rng)
    member_path = write_json(tmp_path / "member.json", table_to_dict(member))
    assert main(["check-table", "--spec", str(spec_file), "--table", member_path]) == 0
    assert f"alpha == {alpha % spec.n}" in capsys.readouterr().out

    broken = sample_broken_corner_table(spec, rng)
    broken_path = write_json(tmp_path / "broken.json", table_to_dict(broken))
    rc = main(
        ["check-table", "--spec", str(spec_file), "--table", broken_path, "--format", "json"]
    )
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    assert report["member"] is False
    assert report["failure"]["code"]


def test_oracle_matches_decision(tmp_path, spec_file, capsys):
    spec = spec_from_json(spec_file.read_text(encoding="utf-8"))
    rng = random.Random(2)
    member, _ = sample_member_table(spec, rng)
    path = write_json(tmp_path / "t.json", table_to_dict(member))
    assert main(["oracle", "--spec", str(spec_file), "--table", path]) == 0
    broken = sample_broken_corner_table(spec, rng)
    path = write_json(tmp_path / "b.json", table_to_dict(broken))
    assert main(["oracle", "--spec", str(spec_file), "--table", path]) == 1
    capsys.readouterr()


def test_mult_and_iterate(spec_file, capsys):
    assert main(["mult", "--spec", str(spec_file), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["generator"] is not None
    assert report["depth"] == 1

    assert main(["iterate", "--spec", str(spec_file), "--k", "2", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["depth"] == 2 and report["basis"] is None

    # depth pushes the rank past the default budget
    assert main(["iterate", "--spec", str(spec_file), "--k", "64"]) == 2
    assert "error" in capsys.readouterr().err


def test_iterate_huge_depth_exits_2(tmp_path, capsys):
    wide = write_json(tmp_path / "wide.json", TWO_BLOCK_SPEC)
    assert main(["iterate", "--spec", wide, "--k", str(10**9)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rank 2^(3^1000000000)") and err.count("\n") == 1


# Two clipped rank-48 types: their depth-1 basis tables hold 2 * 48**3 coordinates.
WIDE_SPEC = {
    "types": [
        {"id": "t1", "inf_primes": [5], "rank": 48, "m": 7, "s": 2},
        {"id": "t2", "inf_primes": [2], "rank": 48, "m": 7, "s": 3},
    ]
}


def with_inf_prime(p):
    """TWO_BLOCK_SPEC with p added to the infinite primes of t2."""
    t1, t2 = TWO_BLOCK_SPEC["types"]
    return {"types": [t1, {**t2, "inf_primes": [2, p]}]}


def with_ranks(rank):
    """TWO_BLOCK_SPEC with both types at the given rank."""
    return {"types": [{**t, "rank": rank} for t in TWO_BLOCK_SPEC["types"]]}


# One type past the bound; the spec is refused before any check reads it.
TOO_MANY_TYPES = {
    "types": [
        {"id": f"t{i}", "inf_primes": [2], "rank": 1, "m": 1, "s": 1}
        for i in range(MAX_TYPES + 1)
    ]
}


# Two rank-1 types sharing the least prime invariant past the in_G scan bound.
LARGE_INDEX = next(m for m in range(MAX_SCAN_INDEX + 1, 2 * MAX_SCAN_INDEX) if is_prime(m))
LARGE_INDEX_SPEC = {
    "types": [
        {"id": "t1", "inf_primes": [2], "rank": 1, "m": LARGE_INDEX, "s": 1},
        {"id": "t2", "inf_primes": [3], "rank": 1, "m": LARGE_INDEX, "s": 1},
    ]
}


# Inputs that would drive unbounded or vacuous work, or be misread; each is
# refused up front.  10**20 + 3 meets the two-basis hypotheses with s2 = 3 and
# m = 7.  The first listed prime is a strong pseudoprime to the bases 2..37, the
# second one to the bases 2..41, past which primality is not decided.
INPUT_FILES = {
    "spec": TWO_BLOCK_SPEC,
    "b": {},
    "wide": WIDE_SPEC,
    "pseudoprime": with_inf_prime(318665857834031151167461),
    "past_prime_bound": with_inf_prime(3317044064679887385961981),
    "rank16": with_ranks(16),
    "rank32": with_ranks(32),
    "too_many_types": TOO_MANY_TYPES,
    "large_index": LARGE_INDEX_SPEC,
    "unit_table": {"blocks": {"t1": [[["1"]]]}},
}
WORK_REFUSALS = {
    "coset-zero-samples": ["coset", "--spec", "{spec}", "--gamma", "1", "--b", "{b}", "--samples", "0"],
    "coset-huge-samples": [
        "coset", "--spec", "{spec}", "--gamma", "1", "--b", "{b}", "--samples", "1000000000"
    ],
    "example27-large-m": ["example27", "--s1", "2", "--s2", "3", "--m", "1009"],
    "example27-huge-s1": ["example27", "--s1", str(10**20 + 3), "--s2", "3", "--m", "7"],
    "gen-huge-max-m": ["gen", "--seed", "0", "--max-m", "1000000000000"],
    "mult-wide-ranks": ["mult", "--spec", "{wide}"],
    "iterate-k1-wide-ranks": ["iterate", "--spec", "{wide}", "--k", "1"],
    "coset-rank-16": ["coset", "--spec", "{rank16}", "--gamma", "1", "--b", "{b}"],
    "coset-rank-32": ["coset", "--spec", "{rank32}", "--gamma", "1", "--b", "{b}"],
    "validate-too-many-types": ["validate", "--spec", "{too_many_types}"],
    "validate-strong-pseudoprime": ["validate", "--spec", "{pseudoprime}"],
    "validate-past-prime-bound": ["validate", "--spec", "{past_prime_bound}"],
    "oracle-large-index": ["oracle", "--spec", "{large_index}", "--table", "{unit_table}"],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(WORK_REFUSALS))
def test_work_bounds_refuse_quickly(tmp_path, capsys, case, fmt):
    files = {
        name: write_json(tmp_path / f"{name}.json", data) for name, data in INPUT_FILES.items()
    }
    argv = [arg.format(**files) for arg in WORK_REFUSALS[case]]
    started = time.perf_counter()
    assert main(argv + ["--format", fmt]) == 2
    assert time.perf_counter() - started < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    if fmt == "json":
        assert set(json.loads(captured.err)) == {"error"}
    else:
        assert captured.err.startswith("error: ")


def test_string_vectors_are_an_input_error(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", TWO_BLOCK_SPEC)
    table = write_json(tmp_path / "t.json", {"blocks": {"t1": [["70", "00"], ["00", "00"]]}})
    for command in ("check-table", "oracle"):
        assert main([command, "--spec", spec, "--table", table]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# A zero block is dropped on parsing, but its type id and size are still read.
SHAPE_CASES = [
    ("table", {"zz": [[["0"]]]}, "unknown type id 'zz'"),
    ("table", {"zz": [[["1"]]]}, "unknown type id 'zz'"),
    ("table", {"t1": [[["0"] * 3] * 3] * 3}, "block 't1' has size 3, expected 2"),
    ("table", {"t1": [[["1"] * 3] * 3] * 3}, "block 't1' has size 3, expected 2"),
    ("b", {"t1": ["0"] * 3}, "block 't1' has size 3, expected 2"),
    ("b", {"t1": ["1"] * 3}, "block 't1' has size 3, expected 2"),
    ("b", {"zz": ["0"]}, "unknown type id 'zz'"),
]


@pytest.mark.parametrize("kind, blocks, message", SHAPE_CASES)
def test_blocks_must_match_the_spec_even_when_zero(tmp_path, capsys, kind, blocks, message):
    spec = write_json(tmp_path / "spec.json", TWO_BLOCK_SPEC)
    if kind == "table":
        doc = write_json(tmp_path / "t.json", {"blocks": blocks})
        commands = [[c, "--spec", spec, "--table", doc] for c in ("check-table", "oracle")]
    else:
        doc = write_json(tmp_path / "b.json", blocks)
        commands = [["coset", "--spec", spec, "--gamma", "1", "--b", doc]]
    for argv in commands:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    # json.dumps cannot nest this deep, so the file is written as text
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    spec = write_json(tmp_path / "spec.json", TWO_BLOCK_SPEC)
    for argv in (
        ["validate", "--spec", str(deep)],
        ["check-table", "--spec", spec, "--table", str(deep)],
        ["oracle", "--spec", spec, "--table", str(deep)],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {deep} is nested too deeply to parse\n"


def test_purity_exit_codes(tmp_path, capsys):
    impure = write_json(
        tmp_path / "impure.json",
        {
            "types": [
                {"id": "t1", "inf_primes": [5], "rank": 1, "m": 4, "s": 1},
                {"id": "t2", "inf_primes": [3], "rank": 1, "m": 2, "s": 1},
            ]
        },
    )
    assert main(["purity", "--spec", impure]) == 1
    out = capsys.readouterr().out
    assert "not pure" in out
    assert main(["purity", "--spec", impure, "--type", "t2"]) == 0
    capsys.readouterr()


def test_purity_reads_many_types_in_linear_time(tmp_path, capsys):
    # purity reads specs that validation would refuse, MAX_TYPES among them,
    # so it must not compare the types in pairs
    primes = [p for p in range(7, 40000) if is_prime(p)][:4000]
    types = [
        {"id": f"t{i:04d}", "inf_primes": [p], "rank": 1, "m": (6, 10, 15)[i % 3], "s": 1}
        for i, p in enumerate(primes)
    ]
    assert len(types) == 4000 > MAX_TYPES
    path = write_json(tmp_path / "many.json", {"types": types})
    started = time.perf_counter()
    assert main(["purity", "--spec", path, "--format", "json"]) == 0
    assert time.perf_counter() - started < 0.5
    report = json.loads(capsys.readouterr().out)
    assert len(report["pure"]) == 4000 and all(report["pure"].values())


def test_coset_command(tmp_path, spec_file, capsys):
    b = write_json(tmp_path / "b.json", {})
    rc = main(
        ["coset", "--spec", str(spec_file), "--gamma", "3", "--b", b, "--format", "json"]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["applicable"] is True
    assert report["verdicts_agree"] is True
    assert report["gamma_constraint"] == "gcd(gamma, regulator index) == 1"

    # gamma sharing a factor with the regulator index is a usage error
    assert main(["coset", "--spec", str(spec_file), "--gamma", "2", "--b", b]) == 2
    capsys.readouterr()

    # t1 of the seed-7 spec inverts only 5: a shift of 1/2 is refused, 1/5 is not applicable
    outside = write_json(tmp_path / "half.json", {"t1": ["1/2"]})
    assert main(["coset", "--spec", str(spec_file), "--gamma", "1", "--b", outside]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: shift element lies outside the regulator at type 't1'\n"
    inside = write_json(tmp_path / "fifth.json", {"t1": ["1/5"]})
    assert main(["coset", "--spec", str(spec_file), "--gamma", "1", "--b", inside]) == 1
    assert capsys.readouterr().out.startswith("not applicable: ")


def test_example27_command(capsys):
    rc = main(["example27", "--s1", "2", "--s2", "3", "--m", "7", "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["intersection_is_regulator"] is True
    assert [c["alpha"] for c in report["cases"]] == [1, 2, 3, 4, 5, 6]

    assert main(["example27", "--s1", "2", "--s2", "4", "--m", "7"]) == 2
    assert capsys.readouterr().err


# Commands run in a fresh interpreter, with what each may not load: the
# standard library's data classes generate code at definition time (and load
# inspect), typing serves annotations only, and fractions (which loads
# decimal) serves only commands that build a Fraction.
NO_CODEGEN = {"dataclasses", "inspect", "typing"}
NO_FRACTIONS = NO_CODEGEN | {"fractions", "decimal"}
COLD_COMMANDS = {
    "validate": (["validate", "--spec", "{spec}"], NO_FRACTIONS),
    "describe": (["describe", "--spec", "{spec}"], NO_FRACTIONS),
    "check-table": (["check-table", "--spec", "{spec}", "--table", "{member}"], NO_FRACTIONS),
    "oracle": (["oracle", "--spec", "{spec}", "--table", "{member}"], NO_FRACTIONS),
    "purity": (["purity", "--spec", "{spec}"], NO_FRACTIONS),
    "mult": (["mult", "--spec", "{spec}"], NO_CODEGEN),
}


def imported_by(args):
    """Modules a child interpreter imports, read from its -X importtime report."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    child = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode in (0, 1), child.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in child.stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.fixture(scope="module")
def startup_modules():
    """What the interpreter and its site hooks load before any command runs."""
    return imported_by(["-c", "pass"])


@pytest.mark.parametrize("command", sorted(COLD_COMMANDS))
def test_cold_start_loads_only_what_the_command_uses(tmp_path, startup_modules, command):
    golden = json.loads((Path(__file__).with_name("cli_golden.json")).read_text("utf-8"))
    files = {
        name: write_json(tmp_path / f"{name}.json", golden["inputs"][name])
        for name in ("spec", "member")
    }
    argv, forbidden = COLD_COMMANDS[command]
    loaded = imported_by(["-m", "crqmult.cli", *(a.format(**files) for a in argv)])
    assert "crqmult.groups" in loaded
    assert (loaded - startup_modules) & forbidden == set()
