"""Command line behavior: exit codes, formats, and determinism."""

import copy
import functools
import io
import itertools
import json
import operator
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crqmult.cli import main
from crqmult.elements import MAX_SCAN_WORK
from crqmult.groups import MAX_TYPES, spec_from_json, spec_to_json, validate_spec
from crqmult.numth import is_prime
from crqmult.tables import (
    sample_broken_corner_table,
    sample_member_table,
    table_to_dict,
)
from reference import work_bounds

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


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("max_m", [10**12, 10**18])
def test_gen_reads_any_max_m_quickly(capsys, max_m, fmt):
    started = time.perf_counter()
    assert main(["gen", "--seed", "0", "--max-m", str(max_m), "--format", fmt]) == 0
    assert time.perf_counter() - started < 0.5
    captured = capsys.readouterr()
    assert captured.err == ""
    spec = spec_from_json(captured.out)
    assert validate_spec(spec) == [] and spec_to_json(spec) == captured.out


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

    # depth pushes the rank past the iterated rank bound
    assert main(["iterate", "--spec", str(spec_file), "--k", "64"]) == 2
    assert "error" in capsys.readouterr().err


def test_iterate_huge_depth_exits_2(tmp_path, capsys):
    wide = write_json(tmp_path / "wide.json", TWO_BLOCK_SPEC)
    assert main(["iterate", "--spec", wide, "--k", str(10**9)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rank^(3^1000000000) at type 't1'") and err.count("\n") == 1


# Two clipped rank-48 types: their depth-1 basis tables hold 2 * 48**3 coordinates.
WIDE_SPEC = {
    "types": [
        {"id": "t1", "inf_primes": [5], "rank": 48, "m": 7, "s": 2},
        {"id": "t2", "inf_primes": [2], "rank": 48, "m": 7, "s": 3},
    ]
}

# One unclipped type whose rank cubed, about 10**18 + 3 * 10**12, is past MAX_ITERATED_RANK.
HUGE_UNCLIPPED_SPEC = {
    "types": [{"id": "t1", "inf_primes": [5], "rank": 10**6 + 1, "m": 1, "s": 1}]
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


# Two rank-1 types sharing the least prime invariant p past the in_G scan bound: a scan
# reads 2p residues and its witness stores 2 coordinates, and from p = MAX_SCAN_WORK // 2
# on, 2p + 2 passes MAX_SCAN_WORK.
LARGE_INDEX = next(filter(is_prime, range(MAX_SCAN_WORK // 2, MAX_SCAN_WORK)))
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
    "huge_unclipped": HUGE_UNCLIPPED_SPEC,
    "pseudoprime": with_inf_prime(318665857834031151167461),
    "past_prime_bound": with_inf_prime(3317044064679887385961981),
    "rank16": with_ranks(16),
    "rank32": with_ranks(32),
    # its ranks cubed have 5998 digits, more than str writes by default
    "rank_2000_digits": with_ranks(10**1999),
    "too_many_types": TOO_MANY_TYPES,
    "large_index": LARGE_INDEX_SPEC,
    "unit_table": {"blocks": {"t1": [[["1"]]]}},
    "scaled_table": {"blocks": {"t1": [[[str(LARGE_INDEX)]]]}},
}
# Each case with the bound its JSON error names, or None where no bound refuses it.
WORK_REFUSALS = {
    "coset-zero-samples": (
        None, ["coset", "--spec", "{spec}", "--gamma", "1", "--b", "{b}", "--samples", "0"]
    ),
    "coset-huge-samples": (
        "MAX_COSET_SAMPLES",
        ["coset", "--spec", "{spec}", "--gamma", "1", "--b", "{b}", "--samples", "1000000000"],
    ),
    "example27-large-m": (
        "MAX_CROSS_BASIS_M", ["example27", "--s1", "2", "--s2", "3", "--m", "1009"]
    ),
    "example27-huge-s1": (
        "MAX_FACTORED", ["example27", "--s1", str(10**20 + 3), "--s2", "3", "--m", "7"]
    ),
    "mult-wide-ranks": ("MAX_TABLE_COORDS", ["mult", "--spec", "{wide}"]),
    "iterate-k1-wide-ranks": ("MAX_TABLE_COORDS", ["iterate", "--spec", "{wide}", "--k", "1"]),
    "mult-huge-unclipped-rank": ("MAX_ITERATED_RANK", ["mult", "--spec", "{huge_unclipped}"]),
    "coset-rank-16": (
        "MAX_SAMPLED_COORDS", ["coset", "--spec", "{rank16}", "--gamma", "1", "--b", "{b}"]
    ),
    "coset-rank-32": (
        "MAX_SAMPLED_COORDS", ["coset", "--spec", "{rank32}", "--gamma", "1", "--b", "{b}"]
    ),
    "mult-2000-digit-rank": ("MAX_TABLE_COORDS", ["mult", "--spec", "{rank_2000_digits}"]),
    "iterate-k1-2000-digit-rank": (
        "MAX_TABLE_COORDS", ["iterate", "--spec", "{rank_2000_digits}", "--k", "1"]
    ),
    "coset-2000-digit-rank": (
        "MAX_SAMPLED_COORDS",
        ["coset", "--spec", "{rank_2000_digits}", "--gamma", "1", "--b", "{b}"],
    ),
    "validate-too-many-types": ("MAX_TYPES", ["validate", "--spec", "{too_many_types}"]),
    "validate-strong-pseudoprime": (None, ["validate", "--spec", "{pseudoprime}"]),
    "validate-past-prime-bound": (
        "MAX_PRIME_TESTED", ["validate", "--spec", "{past_prime_bound}"]
    ),
    # the border is m-scaled and d*d is off the regulator, so it needs the scan, which is refused
    "oracle-large-index": (
        "MAX_SCAN_WORK", ["oracle", "--spec", "{large_index}", "--table", "{scaled_table}"]
    ),
}
BOUNDS = work_bounds()


def test_every_bound_has_a_named_refusal():
    # each case's name is checked against its JSON error by test_work_bounds_refuse_quickly
    named = {name for name, _ in WORK_REFUSALS.values()} - {None}
    assert sorted(BOUNDS) == sorted(named)


# flag values: small and negative ints, ints of up to 4,300 digits (the most that int()
# reads) and strings that argparse refuses as ints
FLAG_VALUES = st.one_of(
    st.integers(-3, 40),
    st.integers(-(10**4300 - 1), 10**4300 - 1),
    st.integers(1, 4300).map(lambda digits: 10**digits - 1),
    st.sampled_from(["", "twelve", "1e3", "0x10", "3.0", "10**12"]),
).map(str)


def run_quickly(argv, fmt):
    """main's exit code, stdout and stderr on argv; it must end within 0.5 s, in 0, 1 or 2,
    with no traceback, and on 2 with one stderr line, which in the json format is JSON with
    "limit" only for a LimitError, whose message names a MAX_* bound of the package."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - started < 0.5
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.endswith("\n")
        if fmt == "text":
            assert err.startswith("error: ")
        else:
            error = json.loads(err)
            assert set(error) <= {"error", "limit"}
            if "limit" in error:
                name = error["limit"]["name"]
                assert name in BOUNDS and f"past the bound {name} = " in error["error"]
    return code, out, err


@settings(max_examples=150, deadline=None)
@given(
    fmt=st.sampled_from(["text", "json"]),
    flags=st.fixed_dictionaries(
        {}, optional={f: FLAG_VALUES for f in ("--max-types", "--max-rank", "--max-m")}
    ),
    seed=FLAG_VALUES,
)
def test_gen_ends_in_a_spec_or_a_one_line_refusal(fmt, flags, seed):
    argv = ["gen", "--seed", seed, "--format", fmt, *itertools.chain(*flags.items())]
    code, out, err = run_quickly(argv, fmt)
    assert code in (0, 2)
    if code == 0:
        assert err == ""
        assert validate_spec(spec_from_json(out)) == []


# each command that reads numbers from its flags, on fixed valid files: its fixed arguments,
# then its required flags with values it accepts, then its optional flags
FLAG_COMMANDS = {
    "iterate": (["iterate", "--spec", "{spec}"], {"--k": "1"}, ()),
    "coset": (["coset", "--spec", "{spec}", "--b", "{b}"], {"--gamma": "3"}, ("--samples", "--seed")),
    "example27": (["example27"], {"--s1": "2", "--s2": "3", "--m": "7"}, ("--seed",)),
}


@pytest.fixture(scope="module")
def flag_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("flags")
    return {name: write_json(tmp / f"{name}.json", INPUT_FILES[name]) for name in ("spec", "b")}


@pytest.mark.parametrize("command", sorted(FLAG_COMMANDS))
@settings(max_examples=80, deadline=None)
@given(fmt=st.sampled_from(["text", "json"]), data=st.data())
def test_flag_commands_end_in_a_report_or_a_one_line_refusal(flag_files, command, fmt, data):
    # some flags take fuzzed values and the others keep values the command accepts, so a
    # run can fail on one flag alone and runs that end in a report are drawn too
    fixed, required, optional = FLAG_COMMANDS[command]
    fuzzed = data.draw(st.sets(st.sampled_from([*required, *optional]), min_size=1))
    flags = {**required, **{f: data.draw(FLAG_VALUES, label=f) for f in sorted(fuzzed)}}
    argv = [arg.format(**flag_files) for arg in fixed] + ["--format", fmt]
    code, out, err = run_quickly(argv + list(itertools.chain(*flags.items())), fmt)
    if code != 2:
        assert err == "" and out
        if fmt == "json":
            assert json.loads(out)["command"] == command


# argparse's own refusals: each argv, before the format flag, with what its message says
ARGPARSE_REFUSALS = {
    "no-command": ([], "crqmult: the following arguments are required: command"),
    "unknown-command": (["frobnicate"], "crqmult: argument command: invalid choice: 'frobnicate'"),
    "missing-flag": (["gen"], "crqmult gen: the following arguments are required: --seed"),
    "non-int-value": (
        ["gen", "--seed", "twelve"], "crqmult gen: argument --seed: invalid int value: 'twelve'"
    ),
    # argparse reads the flags in order, so the first --format is refused and the last is read
    "bad-format": (
        ["gen", "--seed", "0", "--format", "xml"],
        "crqmult gen: argument --format: invalid choice: 'xml'",
    ),
    "unrecognized-argument": (
        ["gen", "--seed", "0", "--colour"], "crqmult: unrecognized arguments: --colour"
    ),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(ARGPARSE_REFUSALS))
def test_argparse_refusals_are_one_line(capsys, case, fmt):
    argv, message = ARGPARSE_REFUSALS[case]
    # "--format=json" stays out of the positionals, so a missing command is still missing
    assert main(argv + (["--format=json"] if fmt == "json" else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    error = json.loads(captured.err) if fmt == "json" else {"error": captured.err[len("error: "):]}
    assert set(error) == {"error"} and error["error"].startswith(message)
    assert fmt == "json" or captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "spelling, fmt",
    [
        (["--format", "json"], "json"),
        (["--format=json"], "json"),
        (["--form", "json"], "json"),
        (["--format", "text"], "text"),
        (["--format"], "text"),
        ([], "text"),
    ],
)
def test_argparse_refusals_read_the_format_as_argparse_does(capsys, spelling, fmt):
    assert main(["gen", "--seed", "twelve", *spelling]) == 2
    err = capsys.readouterr().err
    message = "crqmult gen: argument --seed: invalid int value: 'twelve'"
    assert err == input_error(fmt, message)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(WORK_REFUSALS))
def test_work_bounds_refuse_quickly(tmp_path, capsys, case, fmt):
    files = {
        name: write_json(tmp_path / f"{name}.json", data) for name, data in INPUT_FILES.items()
    }
    name, args = WORK_REFUSALS[case]
    argv = [arg.format(**files) for arg in args]
    started = time.perf_counter()
    assert main(argv + ["--format", fmt]) == 2
    assert time.perf_counter() - started < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    # a number too long for str is written by its size, not refused by the interpreter
    assert "4300 digits" not in captured.err
    if fmt == "text":
        assert captured.err.startswith("error: ")
    elif name is None:
        assert set(json.loads(captured.err)) == {"error"}
    else:
        error = json.loads(captured.err)
        assert set(error) == {"error", "limit"}
        limit = error["limit"]
        assert (limit["name"], limit["bound"]) == (name, BOUNDS[name][1])
        assert f"past the bound {name} = {limit['bound']}" in error["error"]
        value = limit["value"]
        if isinstance(value, str):
            bits = int(value.removeprefix("a ").removesuffix("-bit integer"))
            assert bits > limit["bound"].bit_length()
        elif name == "MAX_PRIME_TESTED":
            # the least number whose primality is not decided
            assert value >= limit["bound"]
        else:
            assert value > limit["bound"]


# The admitted side of the example27 refusals above: m at MAX_CROSS_BASIS_M, with small scales
# and with s1 + m = 999999999961 a prime just under MAX_FACTORED, which trial division scans
# to its square root.
EXAMPLE27_EDGES = {
    "m-at-bound": ["--s1", "2", "--s2", "3", "--m", "101"],
    "m-and-s1-at-bound": ["--s1", "999999999860", "--s2", "3", "--m", "101"],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(EXAMPLE27_EDGES))
def test_example27_at_its_bounds_is_a_quick_report(case, fmt):
    flags = EXAMPLE27_EDGES[case]
    m, s1 = int(flags[5]), int(flags[1])
    assert m == BOUNDS["MAX_CROSS_BASIS_M"][1] and s1 + m <= BOUNDS["MAX_FACTORED"][1]
    code, out, err = run_quickly(["example27", *flags, "--format", fmt], fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        report = json.loads(out)
        assert report["intersection_is_regulator"] is True and len(report["cases"]) == m - 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_unscaled_border_past_scan_limit_is_a_quick_verdict(tmp_path, capsys, fmt):
    # the unscaled border is found before d*d would need the scan, so the scan bound never applies
    spec = write_json(tmp_path / "spec.json", LARGE_INDEX_SPEC)
    table = write_json(tmp_path / "t.json", INPUT_FILES["unit_table"])
    started = time.perf_counter()
    assert main(["oracle", "--spec", spec, "--table", table, "--format", fmt]) == 1
    assert time.perf_counter() - started < 0.5
    captured = capsys.readouterr()
    assert captured.err == "" and "Traceback" not in captured.out
    if fmt == "json":
        assert json.loads(captured.out)["defines_multiplication"] is False


# an m-scaled border whose d*d lies in the regulator, as it does for the zero table
NO_SCAN_TABLES = {
    "zero": {"blocks": {}},
    "witness-0": {"blocks": {"t1": [[[str(LARGE_INDEX**2)]]]}},
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", sorted(NO_SCAN_TABLES))
def test_member_past_scan_limit_needing_no_scan_is_a_quick_verdict(tmp_path, capsys, name, fmt):
    # d*d has witness 0, so in_G answers before the scan bound applies, as check-table does
    spec = write_json(tmp_path / "spec.json", LARGE_INDEX_SPEC)
    table = write_json(tmp_path / "t.json", NO_SCAN_TABLES[name])
    started = time.perf_counter()
    assert main(["oracle", "--spec", spec, "--table", table, "--format", fmt]) == 0
    assert time.perf_counter() - started < 0.5
    captured = capsys.readouterr()
    assert captured.err == "" and "Traceback" not in captured.out
    if fmt == "json":
        assert json.loads(captured.out)["defines_multiplication"] is True


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


# t1 holds one vector of 1 coordinate where rank 2 needs 2 at every level
RAGGED_T1 = [[["1", "0"], ["0"]], [["0", "0"], ["0", "0"]]]
TABLE_READER_CASES = {
    "blocks-not-an-object": ([], "'blocks' must map type ids to matrices"),
    "ragged": ({"t1": RAGGED_T1}, "block 't1' is not 2 wide at every level"),
    # every coordinate is read before a width fault is named, in any block
    "ragged-then-malformed": (
        {"t1": RAGGED_T1, "t2": [[["x"]]]},
        "block 't2' has coordinate 'x', expected an integer or a fraction string",
    ),
}


def input_error(fmt, message):
    """stderr of a malformed-input refusal: one line, and in JSON the message alone, since
    only a work bound adds a "limit" key."""
    return json.dumps({"error": message}) + "\n" if fmt == "json" else f"error: {message}\n"


@pytest.mark.parametrize("case", sorted(TABLE_READER_CASES))
def test_table_reader_refusals_are_an_input_error(tmp_path, capsys, case):
    blocks, message = TABLE_READER_CASES[case]
    spec = write_json(tmp_path / "spec.json", TWO_BLOCK_SPEC)
    table = write_json(tmp_path / "t.json", {"blocks": blocks})
    for command, fmt in itertools.product(("check-table", "oracle"), ("text", "json")):
        assert main([command, "--spec", spec, "--table", table, "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == input_error(fmt, message)


VALID_TYPE = TWO_BLOCK_SPEC["types"][0]
SPEC_READER_CASES = {
    "type-not-an-object": (["t1"], "each type must be an object"),
    "id-not-a-string": ([{**VALID_TYPE, "id": 1}], "type id must be a string"),
    "primes-not-a-list": ([{**VALID_TYPE, "inf_primes": 5}], "inf_primes must be a list of integers"),
    "prime-not-an-integer": (
        [{**VALID_TYPE, "inf_primes": ["5"]}],
        "inf_primes must be a list of integers",
    ),
    "rank-a-float": ([{**VALID_TYPE, "rank": 2.0}], "rank must be an integer"),
    "m-a-string": ([{**VALID_TYPE, "m": "7"}], "m must be an integer"),
    "s-a-bool": ([{**VALID_TYPE, "s": True}], "s must be an integer"),
    "repeated-id": ([VALID_TYPE, VALID_TYPE], "type 't1' is given twice"),
    "rank-zero": (
        [{**VALID_TYPE, "rank": 0}],
        "type 't1' has rank 0 and m = 7; both must be at least 1",
    ),
}


@pytest.mark.parametrize("case", sorted(SPEC_READER_CASES))
def test_spec_reader_refusals_are_an_input_error(tmp_path, capsys, case):
    types, message = SPEC_READER_CASES[case]
    spec = write_json(tmp_path / "spec.json", {"types": types})
    for fmt in ("text", "json"):
        assert main(["validate", "--spec", spec, "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == input_error(fmt, message)


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


# json.dumps cannot repeat a key, so these documents are written as text
TWO_BLOCK_TEXT = json.dumps(TWO_BLOCK_SPEC)
REPEATED_KEY_CASES = [
    ("validate", f'{{"types": {json.dumps(TWO_BLOCK_SPEC["types"])}, "types": []}}', None, "types"),
    ("validate", TWO_BLOCK_TEXT.replace('"rank": 1', '"rank": 99, "rank": 1'), None, "rank"),
    ("check-table", TWO_BLOCK_TEXT, '{"blocks": {"t2": [[["7"]]], "t2": [[["1/2"]]]}}', "t2"),
]


@pytest.mark.parametrize(
    "command, spec_text, table_text, key", REPEATED_KEY_CASES, ids=["types", "rank", "block"]
)
def test_repeated_json_keys_are_an_input_error(tmp_path, capsys, command, spec_text, table_text, key):
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text, encoding="utf-8")
    argv = [command, "--spec", str(spec)]
    if table_text is not None:
        table = tmp_path / "table.json"
        table.write_text(table_text, encoding="utf-8")
        argv += ["--table", str(table)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: JSON object repeats key {key!r}\n"


# Integers with more digits than int() reads: malformed input, not a work bound, so the JSON
# error carries no limit.  json.dumps cannot write them either, so the files are text.
LONG_NUMBER = "1" + "0" * 5000
DIGIT_LIMIT_CASES = {
    "spec-number": (
        TWO_BLOCK_TEXT.replace('"rank": 1', f'"rank": {LONG_NUMBER}'), None, "a number has"
    ),
    "table-number": (
        TWO_BLOCK_TEXT, f'{{"blocks": {{"t2": [[[{LONG_NUMBER}]]]}}}}', "a number has"
    ),
    "table-string": (
        TWO_BLOCK_TEXT,
        f'{{"blocks": {{"t2": [[["{LONG_NUMBER}"]]]}}}}',
        "block 't2' has a coordinate of",
    ),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(DIGIT_LIMIT_CASES))
def test_numbers_past_the_digit_limit_are_an_input_error(tmp_path, capsys, case, fmt):
    spec_text, table_text, subject = DIGIT_LIMIT_CASES[case]
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text, encoding="utf-8")
    argv = ["validate", "--spec", str(spec)]
    if table_text is not None:
        table = tmp_path / "table.json"
        table.write_text(table_text, encoding="utf-8")
        argv = ["check-table", "--spec", str(spec), "--table", str(table)]
    started = time.perf_counter()
    assert main(argv + ["--format", fmt]) == 2
    assert time.perf_counter() - started < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    # the message names the limit, not the interpreter setting that raises it
    assert "set_int_max_str_digits" not in captured.err
    message = f"{subject} more than {sys.get_int_max_str_digits()} digits, too many to read"
    if fmt == "json":
        assert json.loads(captured.err) == {"error": message}
    else:
        assert captured.err == f"error: {message}\n"


# -- Fuzzed documents: every command that reads a spec, table or shift file ------------------
#
# A document starts from a golden input or a reader refusal case. Up to two changes go to its
# value: a node, drawn from all of its nodes, is replaced by any JSON value or dropped, or else
# repeated in its list or renamed in its object. Up to two go to its text at a JSON token: a key
# is repeated, and any other token is replaced by deep nesting, a long integer literal,
# non-ASCII digits or another literal that json reads.

GOLDEN_INPUTS = json.loads(Path(__file__).with_name("cli_golden.json").read_text("utf-8"))["inputs"]
SEED_DOCUMENTS = {
    "spec": [
        GOLDEN_INPUTS["spec"],
        TWO_BLOCK_SPEC,
        *({"types": types} for types, _ in SPEC_READER_CASES.values()),
    ],
    "table": [
        *(GOLDEN_INPUTS[name] for name in ("member", "broken", "unscaled", "malformed")),
        *({"blocks": blocks} for blocks, _ in TABLE_READER_CASES.values()),
    ],
    "shift": [GOLDEN_INPUTS["shift"], {}, {"t1": ["1/2"]}, {"t3": [1]}],
}
# the first seed of each kind is a golden input that the golden spec's commands accept
# each command with its arguments after --spec; the documents it reads are its placeholders
DOCUMENT_COMMANDS = {
    "validate": [],
    "describe": [],
    "mult": [],
    "iterate": ["--k", "1"],
    "purity": [],
    "check-table": ["--table", "{table}"],
    "oracle": ["--table", "{table}"],
    "coset": ["--gamma", "3", "--b", "{shift}"],
}
FUZZ_INTS = st.one_of(
    st.integers(-3, 40),
    st.integers(-(10**40), 10**40),
    st.sampled_from([2, 3, 5, 7, 19, 101, LARGE_INDEX]),
    # the strong pseudoprime and the prime past the tested bound of INPUT_FILES
    st.sampled_from([318665857834031151167461, 3317044064679887385961981]),
)
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        FUZZ_INTS,
        st.floats(),
        st.sampled_from(["t1", "t2", "t3", "zz", "", "7", "-7/4", "1/0", "+7", "1_0", "٣", "７"]),
        st.text(max_size=4),
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["types", "blocks", "id", "m", "t1"]), inner, max_size=3),
    max_leaves=6,
)
# a node's replacement, an integer half the time
NODE_VALUES = FUZZ_INTS | JSON_VALUES
# more than half the documents start from the first seed
SEEDS = {
    kind: st.sampled_from(docs[:1]) | st.sampled_from(docs) for kind, docs in SEED_DOCUMENTS.items()
}
# a renamed key: a type id known or not, or a field name
KEYS = st.sampled_from(["t1", "t2", "t3", "t4", "zz", "", "id", "rank", "blocks"])
# a JSON token of json.dumps's output: a string (a key when ": " follows), a number or a name
JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?[0-9][0-9.eE+-]*|true|false|null|NaN|-?Infinity')
TOKEN_REPLACEMENTS = st.one_of(
    st.integers(1, 3000).map(lambda depth: "[" * depth + "]" * depth),
    st.integers(1, 6000).map(lambda digits: "9" * digits),
    st.sampled_from(["٣", '"٣"', '"1/٣"', '"７/２"', "1e400", "-0.0", "2.0", "NaN", "Infinity"]),
    JSON_VALUES.map(json.dumps),
)


def json_paths(value, path=()):
    """The path of every node of a JSON value, itself first."""
    yield path
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from json_paths(child, (*path, key))


@st.composite
def document_text(draw, kind):
    doc = draw(SEEDS[kind])
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(json_paths(doc))))
        if not path:
            doc = draw(JSON_VALUES)
            continue
        doc = copy.deepcopy(doc)
        *head, key = path
        parent = functools.reduce(operator.getitem, head, doc)
        change = draw(st.sampled_from(["replace", "drop", "repeat-or-rename"]))
        if change == "replace":
            parent[key] = draw(NODE_VALUES)
        elif change == "drop":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, parent[key])
        else:
            parent[draw(KEYS)] = parent.pop(key)
    text = json.dumps(doc, ensure_ascii=draw(st.booleans()))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        tokens = list(JSON_TOKEN.finditer(text))
        if not tokens:
            break
        token = tokens[draw(st.integers(0, len(tokens) - 1))]
        start, end = token.span()
        if text.startswith(": ", end):
            text = f"{text[:start]}{token.group()}: {draw(TOKEN_REPLACEMENTS)}, {text[start:]}"
        else:
            text = text[:start] + draw(TOKEN_REPLACEMENTS) + text[end:]
    return text


@pytest.fixture(scope="module")
def document_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(sorted(DOCUMENT_COMMANDS)),
    fmt=st.sampled_from(["text", "json"]),
    data=st.data(),
)
def test_document_commands_end_in_a_report_or_a_one_line_refusal(document_dir, command, fmt, data):
    # one document the command reads is fuzzed and the others are golden inputs it accepts, so
    # a run can fail on that document alone
    args = DOCUMENT_COMMANDS[command]
    read = ["spec", *(kind for kind in ("table", "shift") if f"{{{kind}}}" in args)]
    fuzzed = data.draw(st.sampled_from(read), label="fuzzed")
    paths = {}
    for kind in read:
        path = document_dir / f"{kind}.json"
        if kind == fuzzed:
            path.write_text(data.draw(document_text(kind), label=kind), encoding="utf-8")
        else:
            write_json(path, SEED_DOCUMENTS[kind][0])
        paths[kind] = str(path)
    argv = [command, "--spec", paths["spec"], *(arg.format(**paths) for arg in args)]
    code, out, err = run_quickly(argv + ["--format", fmt], fmt)
    # a report in text may have no line: purity lists no block of a spec without types
    if code != 2:
        assert err == ""
        if fmt == "json":
            assert json.loads(out)["command"] == command


def test_purity_of_an_empty_type_id_is_an_input_error(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", TWO_BLOCK_SPEC)
    assert main(["purity", "--spec", spec, "--type", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown type id ''\n"


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
# inspect), typing serves annotations only, and the library computes on
# integers, so no command needs fractions (with decimal and numbers).
NOT_LOADED = {"dataclasses", "inspect", "typing", "fractions", "decimal", "numbers"}
COLD_COMMANDS = {
    "validate": ["validate", "--spec", "{spec}"],
    "describe": ["describe", "--spec", "{spec}"],
    "check-table": ["check-table", "--spec", "{spec}", "--table", "{member}"],
    "oracle": ["oracle", "--spec", "{spec}", "--table", "{member}"],
    "purity": ["purity", "--spec", "{spec}"],
    "mult": ["mult", "--spec", "{spec}"],
    "iterate": ["iterate", "--spec", "{spec}", "--k", "2"],
    "coset": ["coset", "--spec", "{spec}", "--gamma", "3", "--b", "{shift}"],
    "example27": ["example27", "--s1", "2", "--s2", "3", "--m", "7"],
    "gen": ["gen", "--seed", "7"],
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
        for name in ("spec", "member", "shift")
    }
    argv = [a.format(**files) for a in COLD_COMMANDS[command]]
    loaded = imported_by(["-m", "crqmult.cli", *argv])
    assert "crqmult.groups" in loaded
    assert (loaded - startup_modules) & NOT_LOADED == set()
