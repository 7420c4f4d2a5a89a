"""README.md's table of work bounds matches the constants in the source."""

from pathlib import Path

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


def test_the_bounds_table_lists_every_bound_with_its_value():
    # each listed constant exists in its module with the listed value, and none is left out
    assert bounds_table(README.read_text(encoding="utf-8")) == work_bounds()
