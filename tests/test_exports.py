"""The package exports only names that its own code uses."""

import io
import tokenize
from pathlib import Path

import crqmult

SOURCE_DIR = Path(crqmult.__file__).parent

# exported without a caller in the package, each with its reason
UNCALLED_EXPORTS = {
    "spec_from_json": "the documented inverse of spec_to_json",
}


def code_references(source):
    """Names used in code, without comments, strings, or the names of def and class lines."""
    names = set()
    previous = None
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME and previous not in ("def", "class"):
            names.add(token.string)
        if token.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
            previous = token.string
    return names


def test_every_export_has_a_caller_in_the_package():
    used = set()
    for path in sorted(SOURCE_DIR.glob("*.py")):
        used |= code_references(path.read_text(encoding="utf-8"))
    exported = {name for names in crqmult._EXPORTS.values() for name in names}
    assert set(UNCALLED_EXPORTS) <= exported
    assert sorted(exported - used - set(UNCALLED_EXPORTS)) == []
    # an allowed exception that gains a caller leaves the list
    assert sorted(set(UNCALLED_EXPORTS) & used) == []
