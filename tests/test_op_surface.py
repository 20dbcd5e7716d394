"""Every taped op in ``kernel/tensor.py`` is used by the package itself.

An op is a module-level function whose body calls ``record_op``. Each one
must be read as ``<tensor module>.<name>`` by some other module under
``nadex``, so no op stays alive only through its own tests.
"""

import ast
from pathlib import Path

import nadex

PACKAGE = Path(nadex.__file__).parent
TENSOR = PACKAGE / "kernel" / "tensor.py"


def taped_ops(source):
    """Names of module-level functions whose body calls ``record_op``."""
    ops = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "record_op" for call in ast.walk(node)):
            ops.add(node.name)
    return ops


def tensor_attributes(source):
    """Attributes read off the names a module binds to the tensor module
    (``from .kernel import tensor as T`` binds ``T``)."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name == "tensor"}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in aliases}


def test_finders_on_a_small_source():
    kernel = ("def a(x):\n    return record_op(x, (x,), None)\n"
              "def b(x):\n    return x\n"
              "def c(x):\n    def bwd(g):\n        pass\n"
              "    return record_op(x, (x,), bwd)\n")
    assert taped_ops(kernel) == {"a", "c"}
    user = ("from .kernel import tensor as T\nfrom .other import tensor_like\n"
            "y = T.a(T.Tensor(1))\nz = tensor_like.c\n")
    assert tensor_attributes(user) == {"a", "Tensor"}


def test_every_taped_op_has_a_package_caller():
    ops = taped_ops(TENSOR.read_text(encoding="utf-8"))
    assert "add" in ops and "matmul" in ops  # the finder sees the kernel
    used = set()
    for path in PACKAGE.rglob("*.py"):
        if path != TENSOR:
            used |= tensor_attributes(path.read_text(encoding="utf-8"))
    assert sorted(ops - used) == []
