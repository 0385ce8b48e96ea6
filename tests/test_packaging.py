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


def _public_definitions(tree):
    """Public top-level functions and classes, and public methods of those
    classes, as (name, line) pairs."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            defs.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            defs.extend(
                (item.name, item.lineno)
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            )
    return defs


def _referenced_names(tree):
    """Every name a module uses: loads, attributes, imports, keywords, and
    string constants (attributes patched or looked up by name)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_public_names_are_referenced():
    # Public code that nothing in the package, its tests or the benchmark
    # names is dead: delete it rather than keep a second path unexercised.
    used = set()
    for top in ("src", "tests", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            used |= _referenced_names(ast.parse(path.read_text(), str(path)))
    unused = []
    for path in sorted((ROOT / "src" / "cpc").rglob("*.py")):
        for name, line in _public_definitions(ast.parse(path.read_text(), str(path))):
            if name not in used:
                unused.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert unused == []
