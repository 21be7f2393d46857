"""The modules of matslice reach each other through public names only.

A leading underscore marks a name as internal to the module that defines it;
another module that reads it couples itself to that module's internals.
The benchmark reads public names from outside: each function it traces by
name must stay a public function of its module.
"""

import ast
import importlib
import inspect
from pathlib import Path

import matslice

PACKAGE = Path(matslice.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def dotted(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = dotted(node.value)
        return None if head is None else f"{head}.{node.attr}"
    return None


def private_reads(path: Path) -> list[str]:
    """Each import or attribute read of another matslice module's private name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()   # local names bound to matslice modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "matslice":
                continue
            for alias in node.names:
                if alias.name in MODULES:
                    modules.add(alias.asname or alias.name)
                elif is_private(alias.name):
                    found.append(f"{path.name}:{node.lineno}: imports {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "matslice":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_private(node.attr):
            owner = dotted(node.value)
            if owner in modules or (owner or "").startswith("matslice."):
                found.append(f"{path.name}:{node.lineno}: reads {owner}.{node.attr}")
    return found


def test_modules_read_no_private_names_of_each_other():
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in private_reads(path)]
    assert not found, "\n".join(found)


BENCH = Path(__file__).resolve().parent.parent / "bench"


def assigned_literal(path: Path, name: str):
    """The literal that ``path`` assigns to ``name`` at module level, read without importing it."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def test_benchmark_metrics_name_public_functions():
    # the benchmark's tracer reads a key that names no public function as
    # 0 calls, so renaming a function would silently zero its metrics
    groups = assigned_literal(BENCH / "spans.py", "GROUPS")
    keys = [key for metric in assigned_literal(BENCH / "run.py", "FUNCTION_METRICS")
            for key in groups.get(metric, (metric,))]
    missing = []
    for key in keys:
        layer, name = key.split(".")
        module = importlib.import_module(f"matslice.{layer}")
        fn = vars(module).get(name)
        if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
            missing.append(key)
    assert keys and not missing, f"not a public function of its module: {missing}"


KIND_INTERNALS = {"exponent", "coeffs", "scale", "requires_positive", "requires_nonzero"}


def test_only_linalg_reads_the_fields_of_a_spectral_function():
    # every rule that depends on the kind of a SpectralFunction lives in
    # linalg; the other modules ask it (coefficients, check_domain, the
    # log-weights) instead of branching on its fields
    found = [f"{path.name}:{node.lineno}: reads .{node.attr}"
             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "linalg"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr in KIND_INTERNALS]
    assert not found, "\n".join(found)


def test_file_rules_live_in_fileio():
    # "-" means standard input or output in fileio alone, and the command
    # line's subcommands take what main loaded from --in instead of reading
    found = [f"{path.name}:{node.lineno}: reads {dotted(node)}"
             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "fileio"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and dotted(node) in ("sys.stdin", "sys.stdout")]
    cli = ast.parse((PACKAGE / "cli.py").read_text())
    found += [f"cli.py:{node.lineno}: {fn.name} calls {dotted(node.func)}"
              for fn in cli.body if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_")
              for node in ast.walk(fn)
              if isinstance(node, ast.Call) and (dotted(node.func) or "").startswith("fileio.read_")]
    assert not found, "\n".join(found)


def solver_calls(path: Path) -> list[tuple[int, bool]]:
    """(line, warm) for each call of the eigensolver's core, ``jacobi_unordered``:
    warm when it passes a start, the second argument or ``start``, that is not None."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and (dotted(node.func) or "").endswith("jacobi_unordered"):
            start = node.args[1:2] + [k.value for k in node.keywords if k.arg == "start"]
            warm = any(not (isinstance(x, ast.Constant) and x.value is None) for x in start)
            calls.append((node.lineno, warm))
    return calls


def test_every_cold_eigensolve_goes_through_the_memo():
    # outside kernels the core runs warm only; a cold solve is
    # kernels.jacobi_eigensystem, whose memo a cold call of the core would skip
    calls = {path.name: solver_calls(path)
             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "kernels"}
    cold = [f"{name}:{line}: jacobi_unordered without a start"
            for name, found in calls.items() for line, warm in found if not warm]
    assert not cold, "\n".join(cold)
    assert any(warm for found in calls.values() for _, warm in found)  # the Lax field's chain
