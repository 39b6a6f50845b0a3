"""No code under src/capypipe but `manifest.write_lines` writes, renames or
removes a file, by builtin `open`, `wave.open` or `os`: an AST check, on the
standard library alone. Every output then ends whole or untouched, and two
outputs naming one file are refused, in one place."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "capypipe"


def _file_write(call: ast.Call) -> str | None:
    """The call's name if it writes, renames or removes a file, else None."""
    name = ast.unparse(call.func)
    if name in ("os.replace", "os.rename", "os.remove"):
        return name
    if name not in ("open", "wave.open"):
        return None
    if len(call.args) > 1:
        mode = call.args[1]
    else:
        mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None:
        return None
    # a mode that is not a literal cannot be shown to only read
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return name
    return name if set(mode.value) & set("wax+") else None


def _file_writes(source: str) -> set[tuple[str, str]]:
    """(scope, call name) for each call of the source that writes, renames or
    removes a file; the scope is the dotted name of the enclosing functions and
    classes, '' at module level."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call) and (name := _file_write(child)):
                found.add((scope, name))
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_file_writes_finds_each_kind():
    source = (
        "import os, wave\n"
        "open('a')\n"
        "def f(p, m):\n"
        "    open(p, 'rb'); open(p, mode='a'); wave.open(p, 'wb')\n"
        "    class C:\n"
        "        def g(self):\n"
        "            os.replace(p, p); open(p, m); os.remove(p)\n"
        "def h(p):\n"
        "    with open(p, 'r+') as fh: os.rename(p, p)\n"
    )
    assert _file_writes(source) == {
        ("f", "open"),
        ("f", "wave.open"),
        ("f.C.g", "os.replace"),
        ("f.C.g", "open"),
        ("f.C.g", "os.remove"),
        ("h", "open"),
        ("h", "os.rename"),
    }


def test_only_write_lines_writes_files():
    writers = set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        writers |= {(path.stem, scope) for scope, _ in _file_writes(source)}
    assert writers == {("manifest", "write_lines")}
