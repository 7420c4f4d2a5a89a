"""README.md is a contract: its bounds table, example, commands and module map match the code."""

import argparse
from pathlib import Path

import crqmult
from crqmult.cli import _build_parser
from reference import work_bounds

README = Path(__file__).resolve().parents[1] / "README.md"


def bounds_table(text):
    """(module, value) per constant, from the rows of the table whose first cell is a MAX_ name."""
    rows = {}
    for line in text.splitlines():
        cells = [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
        if line.startswith("|") and cells[0].startswith("MAX_"):
            name, module, value = cells[:3]
            base, _, power = value.partition("**")
            assert name not in rows, f"{name} is listed twice"
            rows[name] = (module, int(base) ** int(power or 1))
    return rows


def section(text, title):
    """The lines of the `## title` section, up to the next heading of that level."""
    lines = text.splitlines()
    start = lines.index(f"## {title}") + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("## ")), len(lines))
    return lines[start:end]


def code_blocks(lines, language=""):
    """The bodies of the fenced code blocks opened by ```language, in order."""
    blocks, fence, body = [], None, []
    for line in lines:
        if fence is None and line.startswith("```"):
            fence, body = line[3:], []
        elif fence is not None and line == "```":
            if fence == language:
                blocks.append("\n".join(body))
            fence = None
        elif fence is not None:
            body.append(line)
    return blocks


def test_the_bounds_table_lists_every_bound_with_its_value():
    # each listed constant exists in its module with the listed value, and none is left out
    assert bounds_table(README.read_text(encoding="utf-8")) == work_bounds()


def test_the_python_example_runs():
    (example,) = code_blocks(README.read_text(encoding="utf-8").splitlines(), "python")
    exec(compile(example, str(README), "exec"), {"__name__": "readme_example"})


def test_the_command_block_lists_each_subcommand_once():
    (block, *_) = code_blocks(section(README.read_text(encoding="utf-8"), "Command line"))
    words = [line.split() for line in block.splitlines()]
    assert all(line[0] == "crqmult" for line in words)
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(line[1] for line in words) == sorted(commands.choices)


def test_the_module_map_names_each_public_module():
    # the map is the list of "- `module`: ..." lines that follows the line "Modules:"
    lines = section(README.read_text(encoding="utf-8"), "Library")
    start = lines.index("Modules:") + 2
    entries = lines[start : lines.index("", start)]
    assert all(line.startswith("- `") for line in entries)
    modules = Path(crqmult.__file__).parent.glob("*.py")
    public = sorted(p.stem for p in modules if not p.stem.startswith("_"))
    assert sorted(line.split("`")[1] for line in entries) == public
