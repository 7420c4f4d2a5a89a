"""The package defines and exports only names that its own code uses."""

import ast
import io
import tokenize
from pathlib import Path

import crqmult

SOURCE_DIR = Path(crqmult.__file__).parent

# public definitions without a caller in the package, each with its reason
UNCALLED = {
    "build_product": "perfbench/tracer.py looks it up by name (ROADMAP item 1 PR A)",
    "fraction_residue": "perfbench/tracer.py looks it up by name (ROADMAP item 1 PR A)",
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


def package_sources():
    return [path.read_text(encoding="utf-8") for path in sorted(SOURCE_DIR.glob("*.py"))]


def public_definitions(source):
    """Names of the module-level def and class statements that do not start with '_'."""
    nodes = ast.parse(source).body
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for node in nodes if isinstance(node, kinds) and node.name[0] != "_"}


def test_every_export_has_a_caller_in_the_package():
    used = set().union(*map(code_references, package_sources()))
    exported = {name for names in crqmult._EXPORTS.values() for name in names}
    assert sorted(exported - used - set(UNCALLED)) == []


def test_every_public_definition_has_a_caller_in_the_package():
    sources = package_sources()
    used = set().union(*map(code_references, sources))
    defined = set().union(*map(public_definitions, sources))
    assert set(UNCALLED) <= defined
    assert sorted(defined - used - set(UNCALLED)) == []
    # an allowed exception that gains a caller leaves the list
    assert sorted(set(UNCALLED) & used) == []
