"""The package runs on the standard library alone, and a fresh command
imports no more of it than it needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import braidfree

PACKAGE = Path(braidfree.__file__).resolve().parent


def _imported_modules(path):
    """The absolute module names that one source file imports."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        for name in _imported_modules(path):
            assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_package_does_not_import_dataclasses():
    # ``_record`` builds the record classes; ``dataclasses`` would load
    # inspect, ast and tokenize and compile every method at import
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _imported_modules(path):
            assert name.split(".")[0] != "dataclasses", path.name


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    code = ("import braidfree.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr
