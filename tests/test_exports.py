"""The package defines and exports only names that its own code uses, and states its
public surface once: `crqmult._EXPORTS`, with a leading underscore marking every
module-private name."""

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
    """Source text of each module of the package, by module name."""
    return {path.stem: path.read_text(encoding="utf-8") for path in SOURCE_DIR.glob("*.py")}


def public_definitions(source):
    """Names of the module-level def and class statements that do not start with '_'."""
    nodes = ast.parse(source).body
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for node in nodes if isinstance(node, kinds) and node.name[0] != "_"}


def test_every_export_has_a_caller_in_the_package():
    used = set().union(*map(code_references, package_sources().values()))
    exported = {name for names in crqmult._EXPORTS.values() for name in names}
    assert sorted(exported - used - set(UNCALLED)) == []


def test_every_public_definition_has_a_caller_in_the_package():
    sources = package_sources().values()
    used = set().union(*map(code_references, sources))
    defined = set().union(*map(public_definitions, sources))
    assert set(UNCALLED) <= defined
    assert sorted(defined - used - set(UNCALLED)) == []
    # an allowed exception that gains a caller leaves the list
    assert sorted(set(UNCALLED) & used) == []


def test_no_submodule_states_a_public_surface_of_its_own():
    stated = []
    for module, source in package_sources().items():
        for node in ast.parse(source).body:
            # Assign has targets; AnnAssign and AugAssign have one target
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            if "__all__" in [getattr(t, "id", None) for t in targets]:
                stated.append(module)
    assert stated == ["__init__"]


def test_every_export_is_a_definition_of_the_module_it_is_listed_under():
    sources = package_sources()
    for module, names in crqmult._EXPORTS.items():
        defined = public_definitions(sources[module])
        for name in names:
            assert name in defined, (module, name)
            assert getattr(crqmult, name).__module__ == f"crqmult.{module}", (module, name)


def test_no_module_imports_a_private_name_of_another():
    # neither `from .tables import _x` nor `tables._x` or `Blocks._x` on a name that an
    # import from the package binds; dunder attributes such as `__name__` are not private
    imported = []
    for module, source in package_sources().items():
        tree = ast.parse(source)
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.partition(".")[0] == "crqmult"
            ):
                imported += [(module, a.name) for a in node.names if a.name[0] == "_"]
                bound |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Import):
                package = [a for a in node.names if a.name.partition(".")[0] == "crqmult"]
                bound |= {a.asname or "crqmult" for a in package}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr[0] == "_" and node.attr[:2] != "__":
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in bound:
                    imported.append((module, node.attr))
    assert imported == []
