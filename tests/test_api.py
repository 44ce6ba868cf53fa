"""The package's public names, and every granulom name the benchmark scripts read.

Every name in a module's `__all__` must exist, so a deleted function
cannot leave a stale entry. The benchmark scripts under perfbench/ import
granulom modules by name (`from granulom import features`) and read
attributes off them (`features.OpeningGranulometry`); each such attribute
must resolve, so a change to the package cannot break them unnoticed.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import granulom

MODULES = sorted(m.name for m in pkgutil.iter_modules(granulom.__path__))
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"granulom.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), exported
    assert [n for n in exported if not hasattr(module, n)] == []


def perfbench_reads() -> set[tuple[str, str]]:
    """(module, attribute) of every `module.attr` that perfbench reads off a granulom module."""
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = {alias.asname or alias.name: alias.name
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "granulom"
                   for alias in node.names}
        reads |= {(modules[node.value.id], node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules}
    return reads


def test_every_name_perfbench_reads_resolves():
    reads = perfbench_reads()
    assert ("features", "OpeningGranulometry") in reads
    missing = [f"{mod}.{attr}" for mod, attr in sorted(reads)
               if not hasattr(importlib.import_module(f"granulom.{mod}"), attr)]
    assert missing == []
