import ast
import importlib
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def test_console_scripts_resolve():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_python_floor_is_the_ci_interpreter():
    # The declared floor is the one interpreter CI runs (these tests import
    # tomllib, new in 3.11), so the two cannot drift apart.
    floor = tomllib.loads(PYPROJECT.read_text())["project"]["requires-python"]
    versions = re.findall(r"python-version:\s*[\"']?([\d.]+)", WORKFLOW.read_text())
    assert [floor] == [f">={v}" for v in versions]


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


def _used_names():
    """Every name that the package, its tests or the benchmark uses."""
    used = set()
    for top in ("src", "tests", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            used |= _referenced_names(ast.parse(path.read_text(), str(path)))
    return used


def test_public_names_are_referenced():
    # Public code that nothing in the package, its tests or the benchmark
    # names is dead: delete it rather than keep a second path unexercised.
    used = _used_names()
    unused = []
    for path in sorted((ROOT / "src" / "cpc").rglob("*.py")):
        for name, line in _public_definitions(ast.parse(path.read_text(), str(path))):
            if name not in used:
                unused.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert unused == []


def test_private_module_names_are_referenced():
    # The same rule for a module's private functions and classes: one that
    # nothing names but its own definition, such as a helper left behind
    # when its callers moved to another, is dead.
    used = _used_names()
    unused = []
    for path in sorted((ROOT / "src" / "cpc").rglob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and node.name not in used
            ):
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert unused == []


def test_src_modules_are_runtime_code():
    # Every module of the package but the experiment harness serves another
    # module of it. A module that nothing in the package imports is code
    # only the tests run, such as an oracle, and belongs under tests/.
    paths = sorted((ROOT / "src" / "cpc").glob("*.py"))
    imported = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            # The package imports itself relatively: from .module import
            # name, or from . import module.
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.update([node.module] if node.module else [a.name for a in node.names])
    assert {p.stem for p in paths} - {"__init__", "experiments"} - imported == set()


def _blas_sites(tree, exempt):
    """(line, description) of each numpy.linalg reference, ``@`` and
    ``.dot(`` call in a module, outside the functions named in ``exempt``
    (as "Class.method" or "function")."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
            if scope in exempt:
                return
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            sites.append((node.lineno, "numpy.linalg"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.linalg"):
            sites.append((node.lineno, "numpy.linalg"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            sites.append((node.lineno, "@"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "dot"
        ):
            sites.append((node.lineno, ".dot("))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return sites


def test_control_cycle_calls_no_blas():
    # The control cycle's solves, quadratic forms and norms run on Python
    # floats, so a trial's torques do not depend on the host's BLAS kernel.
    # RewardSpec's eigenvalue check runs once per spec and only accepts or
    # rejects it.
    found = []
    for name in ("controller.py", "control_law.py", "value.py"):
        path = ROOT / "src" / "cpc" / name
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{name}:{line} {what}" for line, what in _blas_sites(tree, {"RewardSpec.__post_init__"})]
    assert found == []


def _private_attribute_reads(tree):
    """(line, name) of each read of ``x._name`` (one leading underscore, x
    not ``self``) whose name the module never assigns as ``self._name``."""
    owned = set()
    reads = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
        if on_self and isinstance(node.ctx, ast.Store):
            owned.add(node.attr)
        elif (
            not on_self
            and isinstance(node.ctx, ast.Load)
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            reads.append((node.lineno, node.attr))
    # NamedTuple's public API is underscored so as not to clash with fields.
    return [(line, name) for line, name in reads if name not in owned | {"_replace"}]


def test_modules_read_no_other_modules_private_attributes():
    # A private attribute is read only by the module that sets it, so each
    # layout decision (such as the retrieval handle's columns) has one owner.
    found = []
    for path in sorted((ROOT / "src" / "cpc").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{line} {name}" for line, name in _private_attribute_reads(tree)]
    assert found == []
