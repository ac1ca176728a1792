"""The runtime imports nothing outside the standard library."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cmoore"


def absolute_imports(path: Path):
    """Top-level module names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_modules_import_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found in {PACKAGE}"
    foreign = [
        f"{path.name}: {name}"
        for path in modules
        for name in absolute_imports(path)
        if name not in sys.stdlib_module_names
    ]
    assert foreign == []
