"""The acceptance criteria and the pinned CLI output, checked without pytest.

Run from the repository root, on any supported interpreter:

    PYTHONPATH=src python tests/replay_stdlib.py [GOLDEN]

It calls every `test_criterion_*` function of `test_acceptance.py`, replays
each case of GOLDEN (default `tests/cli_golden.json`) through
`crqmult.cli.main` and compares its exit code, stdout and stderr, and compares
every `--help` text with `tests/cli_help.json`.  It prints one line per
mismatch and exits 1 if there is any, 0 otherwise.
"""

import json
import sys
import tempfile
import traceback
from pathlib import Path

import test_acceptance
from reference import COMMANDS, FORMATS, help_texts, run_cli

HERE = Path(__file__).parent


def replay(golden_path):
    """One line per mismatch, after running every check."""
    mismatches = []
    criteria = sorted(name for name in dir(test_acceptance) if name.startswith("test_criterion_"))
    for name in criteria:
        try:
            getattr(test_acceptance, name)()
        except Exception:
            traceback.print_exc()
            mismatches.append(f"{name} failed")
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS:
            for fmt in FORMATS:
                case = f"{name} --format {fmt}"
                got = run_cli((*argv, "--format", fmt), golden["inputs"], Path(tmp))
                expected = golden["cases"].get(case, {})
                differs = [key for key in got if got[key] != expected.get(key)]
                if differs:
                    mismatches.append(f"golden case {case!r}: {', '.join(differs)} differ")
    pinned = json.loads((HERE / "cli_help.json").read_text(encoding="utf-8"))
    texts = help_texts()
    for prefix, text in texts.items():
        if text != pinned.get(prefix):
            mismatches.append(f"help text of {prefix or 'the top level'!r} differs")
    print(
        f"{len(criteria)} criteria, {len(COMMANDS) * len(FORMATS)} golden cases, "
        f"{len(texts)} help texts on Python {sys.version.split()[0]}: "
        f"{len(mismatches)} mismatch(es)"
    )
    return mismatches


if __name__ == "__main__":
    found = replay(Path(sys.argv[1]) if len(sys.argv) > 1 else HERE / "cli_golden.json")
    for line in found:
        print(line)
    raise SystemExit(1 if found else 0)
