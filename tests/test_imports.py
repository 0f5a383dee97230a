"""The package depends on numpy and the standard library only."""

import ast
import sys
from pathlib import Path

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

