"""Golden CLI output: exit code, stdout and stderr pinned byte for byte.

The inputs in `cli_golden.json` were built once from seeded library calls
(`random_spec(10, GenBounds(3, 3, 36))` and tables sampled with
`random.Random(10)`) and are stored verbatim, so the test does not depend on
the sampling code it guards.  Every case runs in both output formats.
`cli_help.json` pins the `--help` text of the top level and of every command,
on a terminal 100 columns wide.

To regenerate after an intended output change, run
`PYTHONPATH=src python tests/test_cli_golden.py` and review the diff.
"""

import json
import random
import tempfile
from pathlib import Path

import pytest

from crqmult.groups import GenBounds, random_spec, spec_to_dict
from crqmult.tables import (
    sample_broken_corner_table,
    sample_member_table,
    sample_unscaled_border_table,
    table_to_dict,
)
from reference import COMMANDS, FORMATS, help_texts, run_cli

GOLDEN = Path(__file__).with_name("cli_golden.json")
HELP = Path(__file__).with_name("cli_help.json")


def _load():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name,argv", COMMANDS, ids=[name for name, _ in COMMANDS])
def test_cli_output_is_pinned(name, argv, fmt, tmp_path):
    golden = _load()
    got = run_cli((*argv, "--format", fmt), golden["inputs"], tmp_path)
    assert got == golden["cases"][f"{name} --format {fmt}"]


def test_golden_file_covers_every_case():
    cases = _load()["cases"]
    assert set(cases) == {f"{name} --format {fmt}" for name, _ in COMMANDS for fmt in FORMATS}
    assert {case["exit"] for case in cases.values()} == {0, 1, 2}


def test_help_text_is_pinned():
    pinned = json.loads(HELP.read_text(encoding="utf-8"))
    assert help_texts() == pinned


def _build_inputs():
    spec = random_spec(10, GenBounds(3, 3, 36))
    rng = random.Random(10)
    member, _ = sample_member_table(spec, rng)
    return {
        "spec": spec_to_dict(spec),
        "member": table_to_dict(member),
        "broken": table_to_dict(sample_broken_corner_table(spec, rng)),
        "unscaled": table_to_dict(sample_unscaled_border_table(spec, rng)),
        # gamma 3 keeps 3*s + 7*k free of each type's infinite primes
        "shift": {"t1": ["2", "0", "0"], "t2": ["1"]},
        "malformed": {"blocks": {"t2": ["7"]}},
    }


def _regenerate(directory):
    inputs = _build_inputs()
    cases = {
        f"{name} --format {fmt}": run_cli((*argv, "--format", fmt), inputs, directory)
        for name, argv in COMMANDS
        for fmt in FORMATS
    }
    GOLDEN.write_text(
        json.dumps({"inputs": inputs, "cases": cases}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    HELP.write_text(json.dumps(help_texts(), indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _regenerate(Path(tmp))
