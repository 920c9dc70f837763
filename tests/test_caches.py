"""Every cache that lives as long as the process has a finite bound."""

import ast
import importlib
import pathlib

import gammalog
from gammalog import engine
from gammalog.syntax import parse

PACKAGE = pathlib.Path(gammalog.__file__).parent


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        name = "gammalog" if path.stem == "__init__" else f"gammalog.{path.stem}"
        yield path, importlib.import_module(name)


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def test_every_lru_cache_has_a_bound():
    found = 0
    for path, module in _modules():
        owners = [module] + [v for v in vars(module).values()
                             if isinstance(v, type) and v.__module__ == module.__name__]
        for owner in owners:
            for name, value in vars(owner).items():
                if hasattr(value, "cache_info"):
                    found += 1
                    assert value.cache_info().maxsize is not None, f"{path.name}: {name}"
        # caches made anywhere else in the source, nested ones included
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
                args = node.args + [k.value for k in node.keywords if k.arg == "maxsize"]
                assert not any(isinstance(a, ast.Constant) and a.value is None for a in args), \
                    f"{path.name}:{node.lineno} has an unbounded lru_cache"
            if isinstance(node, ast.FunctionDef):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    assert _name(target) != "cache", f"{path.name}:{node.lineno} uses functools.cache"
    assert found >= 10


def test_every_module_cache_has_a_bound():
    caches = [
        (module, name) for _, module in _modules() for name, value in vars(module).items()
        if name.endswith("_CACHE") and isinstance(value, dict)
    ]
    assert (engine, "_SAT_CACHE") in caches
    for module, name in caches:
        assert 0 < getattr(module, f"{name}_SIZE") < float("inf"), name


def test_sat_cache_forgets_its_oldest_verdict(monkeypatch):
    monkeypatch.setattr(engine, "_SAT_CACHE_SIZE", 2)
    monkeypatch.setattr(engine, "_SAT_CACHE", {})
    s4 = engine.parse_logic("S4")
    formulas = [parse(text) for text in ("p", "[]p", "<>p")]
    for f in formulas:
        engine.sat(f, s4)
    assert [key[0] for key in engine._SAT_CACHE] == formulas[1:]
