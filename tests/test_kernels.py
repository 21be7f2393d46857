"""The trusted kernels stay below the validating layer.

``matslice.kernels`` runs on arrays its callers have already checked; the
public functions of the other modules validate once and call it.  So the
kernels may import nothing of matslice but ``errors``, and never validate.
"""

import ast
from pathlib import Path

import matslice

KERNELS = Path(matslice.__file__).parent / "kernels.py"
VALIDATORS = {"as_square", "as_symmetric", "as_vector"}


def tree():
    return ast.parse(KERNELS.read_text(), filename=str(KERNELS))


def test_kernels_import_no_matslice_module_but_errors():
    imported = set()
    for node in ast.walk(tree()):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0:
                imported |= {node.module} if node.module else {a.name for a in node.names}
            elif (node.module or "").split(".")[0] == "matslice":
                imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.split(".")[0] == "matslice"}
    assert imported <= {"errors", "matslice.errors"}, imported


def test_kernels_call_no_validator():
    called = set()
    for node in ast.walk(tree()):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name in VALIDATORS:
                called.add(f"line {node.lineno}: {name}")
    assert not called, sorted(called)
