"""Every module-level import in the package is used by its module."""

import ast
from pathlib import Path

import pytest

import nadex

PACKAGE = Path(nadex.__file__).parent
# __init__.py files import names to re-export them
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by module-level imports that nothing in the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_finder_flags_only_unread_names():
    source = ("import os\nimport os.path as osp\nimport numpy as np\n"
              "from .x import a, b as c\nprint(np.pi, a, osp.sep)\n")
    assert unused_imports(source) == [(1, "os"), (4, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
