"""The package and its tests import only the standard library and pytest.

numpy, sympy or hypothesis may be installed where the tests run, so an
accidental import of one would pass there; this test reads the imports
instead of running them.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = set(sys.stdlib_module_names) | {"graphtower", "pytest", "conftest"}


def _top_level_imports(path):
    """The top-level module of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_only_stdlib_and_pytest_are_imported():
    files = sorted([*ROOT.glob("src/graphtower/*.py"),
                    *ROOT.glob("tests/*.py")])
    assert len(files) > 20
    outside = [f"{path.relative_to(ROOT)}: {module}" for path in files
               for module in sorted(set(_top_level_imports(path)) - ALLOWED)]
    assert not outside
