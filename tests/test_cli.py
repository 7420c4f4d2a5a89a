"""Command line behavior: exit codes, formats, and determinism."""

import json
import random

import pytest

from crqmult.cli import main
from crqmult.groups import spec_from_json, spec_to_json
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


def test_string_vectors_are_an_input_error(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", TWO_BLOCK_SPEC)
    table = write_json(tmp_path / "t.json", {"blocks": {"t1": [["70", "00"], ["00", "00"]]}})
    for command in ("check-table", "oracle"):
        assert main([command, "--spec", spec, "--table", table]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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


def test_example27_command(capsys):
    rc = main(["example27", "--s1", "2", "--s2", "3", "--m", "7", "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["intersection_is_regulator"] is True
    assert [c["alpha"] for c in report["cases"]] == [1, 2, 3, 4, 5, 6]

    assert main(["example27", "--s1", "2", "--s2", "4", "--m", "7"]) == 2
    assert capsys.readouterr().err
