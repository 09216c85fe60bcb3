"""The package's import graph: what `import factorcube` loads and exports."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import factorcube

SRC = Path(factorcube.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_readme_library_examples_run(tmp_path, monkeypatch):
    # the python blocks under README's "Library use" run as written, the
    # second one writing run/ into a fresh directory, and the package root
    # exports exactly the names they import, plus backend and __version__
    section = README.read_text().split("\n## Library use\n")[1].split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    imported = {"backend", "__version__"}
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "factorcube":
                imported.update(alias.name for alias in node.names)
        exec(compile(block, "README.md", "exec"), {})
    assert (tmp_path / "run").is_dir()
    assert imported == set(factorcube.__all__)


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


def test_cli_uses_only_public_names_of_other_modules():
    # the command line reads and writes files through public functions only,
    # so each file format keeps one reader and one writer
    modules = {path.stem for path in SRC.glob("*.py")}
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "factorcube"):
            names = [alias.name for alias in node.names]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            names = [node.attr]
        else:
            continue
        found += [f"cli.py:{node.lineno} {name}" for name in names
                  if name.startswith("_") and not name.endswith("__")]
    assert found == []


def test_benchmark_names_resolve():
    # the benchmark wraps the attributes its span table names and calls
    # factorcube.backend(); a rename passes every other test and breaks it
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    code = (
        "import runpy, factorcube\n"
        f"targets = runpy.run_path({str(spans)!r})['TARGETS']\n"
        "names = [(m, a) for m, a, _ in targets] + [(factorcube, 'backend')]\n"
        "print([f'{m.__name__}.{a}' for m, a in names\n"
        "       if not callable(getattr(m, a, None))])\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
