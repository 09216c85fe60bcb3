"""The package's import graph: what `import factorcube` loads and exports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import factorcube

SRC = Path(factorcube.__file__).resolve().parent


def run_python(*args):
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60, env=env
    )


def test_cli_module_runs_without_warnings():
    proc = run_python("-W", "error", "-m", "factorcube.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_package_import_leaves_cli_unloaded():
    code = "import sys, factorcube; print('factorcube.cli' in sys.modules)"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_every_export_resolves():
    for name in factorcube.__all__:
        assert getattr(factorcube, name) is not None, name


def test_no_imports_inside_functions():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if path.name == "__init__.py" and fn.name == "__getattr__":
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"{path.name}:{node.lineno} in {fn.name}")
    assert found == []
