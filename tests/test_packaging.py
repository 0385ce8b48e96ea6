import ast
import importlib
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def test_console_scripts_resolve():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_src_imports_declared():
    # The package needs only the standard library and numpy at run time;
    # anything else belongs in an extra.
    allowed = set(sys.stdlib_module_names) | {"numpy", "cpc"}
    found = set()
    for path in sorted((ROOT / "src" / "cpc").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.partition(".")[0])
    assert found - allowed == set()
    assert "numpy" in found
