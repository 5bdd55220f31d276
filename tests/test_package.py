"""The package's public surface, as the benchmark in perfbench/ uses it.

perfbench/ drives fedunlab only through names it imports and through the
methods its tracer wraps; a refactor that renames or drops one of them
breaks the benchmark, so it must fail here first.
"""

import ast
import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import fedunlab

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_imports():
    """(module, name) for every `from fedunlab... import name` in perfbench."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "fedunlab" or node.module.startswith("fedunlab.")
            ):
                found.extend((node.module, alias.name) for alias in node.names)
    return found


def test_all_names_resolve():
    missing = [name for name in fedunlab.__all__ if not hasattr(fedunlab, name)]
    assert missing == []


def test_perfbench_imports_stay_public():
    imports = _perfbench_imports()
    assert imports, "perfbench imports nothing from fedunlab"
    for module, name in imports:
        if module == "fedunlab":
            assert name in fedunlab.__all__, f"perfbench imports fedunlab.{name}"
        else:
            assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_perfbench_traced_methods_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer in spans.LAYERS:
        importlib.import_module(f"fedunlab.{layer}")
    for owner, methods in spans.METHODS.items():
        cls = getattr(fedunlab, owner)
        for method in methods:
            assert method in vars(cls), f"{owner}.{method} is not defined in the class body"
    assert inspect.isfunction(fedunlab.unlearn.build_sample_replay_plan)


def test_perfbench_selftest_passes():
    """Every benchmark check accepts the real outputs and rejects broken
    ones, so a store or codec change that breaks a check fails here."""
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]


def test_import_leaves_scipy_stats_unloaded():
    """scipy.stats takes most of a second to import; the package loads it
    only inside the functions that need it."""
    code = "import sys, fedunlab; print('scipy.stats' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        cwd=Path(fedunlab.__file__).resolve().parent.parent,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
