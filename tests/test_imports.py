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
