"""The package's modules use each other only through public names, and
every name that the benchmark's trace harness wraps exists."""

import ast
import importlib
import pathlib

import gammalog

PACKAGE = pathlib.Path(gammalog.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_uses(path: pathlib.Path) -> list[str]:
    """`module._name` accesses and `from .module import _name` imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    module_names = set()
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        in_package = node.level > 0 or (node.module or "").startswith("gammalog")
        imports_modules = node.module in (None, "gammalog")
        for alias in node.names:
            if in_package and imports_modules and alias.name in MODULES:
                module_names.add(alias.asname or alias.name)
            elif in_package and _private(alias.name):
                found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_names
            and _private(node.attr)
        ):
            found.append(f"{path.name}:{node.lineno} uses {node.value.id}.{node.attr}")
    return found


def test_no_cross_module_private_access():
    found = [use for path in sorted(PACKAGE.glob("*.py")) for use in _private_uses(path)]
    assert not found, found


def test_trace_harness_targets_resolve():
    # perfbench/layertrace.py wraps these names from outside the package;
    # read its TARGETS without importing it
    path = PACKAGE.parents[1] / "perfbench" / "layertrace.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    [targets] = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    assert len(targets) == 21
    for module, attribute_path, _ in targets:
        obj = importlib.import_module(f"gammalog.{module}")
        for part in attribute_path.split("."):
            obj = getattr(obj, part, None)
            assert obj is not None, f"{module}.{attribute_path}"
        assert callable(obj), f"{module}.{attribute_path}"
