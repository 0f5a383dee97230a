"""The package depends on numpy and the standard library only, and its exports are live."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import fbttr

SRC = Path(__file__).resolve().parent.parent / "src" / "fbttr"


def absolute_imports(source):
    """(line, top-level module) of every absolute import in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_src_imports_only_numpy_and_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "__init__.py" in modules
    foreign = [
        f"{path.name}:{line} imports {name}"
        for path in modules
        for line, name in absolute_imports(path.read_text(encoding="utf-8"))
        if name != "numpy" and name not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_every_export_resolves_and_root_names_are_exported_where_defined():
    modules = [importlib.import_module(f"fbttr.{path.stem}") for path in sorted(SRC.glob("*.py"))
               if path.stem != "__init__"]
    stale = [f"{m.__name__}.{name}" for m in modules for name in m.__all__ if not hasattr(m, name)]
    assert stale == []
    public = {name: obj for name, obj in vars(fbttr).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public
    unlisted = [f"{name} (from {obj.__module__})" for name, obj in public.items()
                if name not in sys.modules[obj.__module__].__all__]
    assert unlisted == []
