"""No module under src/capypipe imports a name it does not use: an AST check,
on the standard library alone."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "capypipe"

# imported only for perfbench's hook table, which finds each layer by the
# importing module's attribute (perfbench/worker.py)
HOOKED = {("pipeline", "ngram_cosine"), ("cli", "write_manifest")}


def _unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


def test_unused_imports_finds_one():
    source = "import os\nimport sys as system\nfrom json import dumps, loads\nloads(os.sep)\n"
    assert _unused_imports(source) == {"system", "dumps"}


def test_no_module_imports_a_name_it_does_not_use():
    unused = set()
    # the package's __init__ imports its public names for callers, not itself
    for path in sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}):
        unused |= {(path.stem, name) for name in _unused_imports(path.read_text(encoding="utf-8"))}
    assert unused == HOOKED


def _imported_modules(source: str) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.partition(".")[0])
    return modules


def test_imported_modules_finds_each_form():
    source = "import json\nimport os.path as p\nfrom json import dumps\nfrom . import json as j\n"
    assert _imported_modules(source) == {"json", "os"}


def test_only_manifest_imports_json():
    # every JSON encoder and decoder lives in manifest, so its output rules have one home
    importers = {path.stem for path in SRC.glob("*.py")
                 if "json" in _imported_modules(path.read_text(encoding="utf-8"))}
    assert importers == {"manifest"}


# the record rule's names: `manifest.validate`, and `require_valid`, a second
# pass over records already decoded
RECORD_RULE = {"validate", "require_valid"}


def _names(source: str) -> set[str]:
    """Every name a module reads, binds or defines, attributes included, and every
    name it imports, as the imported module spells it."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_names_finds_each_form():
    source = "from m import a as z\nimport b\ndef d(): e.f(g)\n"
    assert _names(source) == {"a", "b", "d", "e", "f", "g"}


def test_only_manifest_names_the_record_rule():
    # `SampleRecord.from_json` validates each record it decodes, so every command
    # reads records by one rule and none checks them again
    named = {path.stem: RECORD_RULE & _names(path.read_text(encoding="utf-8"))
             for path in SRC.glob("*.py") if path.stem != "manifest"}
    # the package's __init__ re-exports `validate` for library callers
    assert {stem: names for stem, names in named.items() if names} == {"__init__": {"validate"}}
