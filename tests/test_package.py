import ast
import os
import subprocess
import sys
from pathlib import Path

import gmmfad


def test_every_exported_name_resolves():
    assert len(set(gmmfad.__all__)) == len(gmmfad.__all__)
    for name in gmmfad.__all__:
        assert getattr(gmmfad, name) is not None, name


def test_import_leaves_scipy_stats_unloaded():
    # only the rank transform needs scipy.stats, and it imports it itself
    env = dict(os.environ, PYTHONPATH=str(Path(gmmfad.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, gmmfad, gmmfad.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False", proc.stdout + proc.stderr


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in read]


def test_unused_import_check_sees_what_a_deletion_leaves():
    source = "import os\nimport sys as system\nfrom a.b import c, d\n"
    source += "__all__ = ['d']\nprint(c)\n"
    assert _unused_imports(source) == ["line 1: os", "line 2: system"]


def test_no_module_imports_a_name_it_does_not_use():
    # no linter runs on the package: this catches an import a deletion
    # leaves behind
    found = {}
    for path in sorted(Path(gmmfad.__file__).parent.glob("*.py")):
        unused = _unused_imports(path.read_text())
        if unused:
            found[path.name] = unused
    assert found == {}
