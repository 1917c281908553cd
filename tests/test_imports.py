"""Every import in the package modules is used, every name that the
bench and the scripts take from the package still exists, and every script
that README names is there.

There is no linter in the toolchain, so these stdlib-only checks are the
gate. ``__init__.py`` is skipped (its imports are re-exports), and so is
``from __future__ import annotations``.
"""

import ast
import importlib
import inspect
import importlib.util
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bnncert"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


def test_checker_flags_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import os\nfrom math import pi, tau\nprint(pi)\n")
    assert unused_imports(src) == ["os (line 2)", "tau (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


ROOT = SRC.parent.parent
CLIENTS = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("scripts/*.py")])


def bnncert_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) for every ``from bnncert... import name``."""
    return [(node.module, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "bnncert"
            for alias in node.names]


def resolves(module: str, name: str) -> bool:
    """Whether ``from module import name`` would succeed."""
    if hasattr(importlib.import_module(module), name):
        return True
    return importlib.util.find_spec(f"{module}.{name}") is not None


@pytest.mark.parametrize("path", CLIENTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_client_imports_resolve(path):
    missing = [f"{m}.{n}" for m, n in bnncert_imports(path.read_text())
               if not resolves(m, n)]
    assert missing == []


def test_readme_names_only_existing_scripts():
    readme = (ROOT / "README.md").read_text()
    named = sorted(set(re.findall(r"scripts/[\w/]+\.py", readme)))
    assert named and [p for p in named if not (ROOT / p).is_file()] == []


def test_bench_span_targets_exist():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{attr}" for module, attr, *_ in spans.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert spans.TARGETS and missing == []



@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_submodule_is_not_shadowed(path):
    # A package re-export named like a submodule would hide the module from
    # ``import bnncert.x as m`` and from monkeypatching "bnncert.x.attr".
    importlib.import_module(f"bnncert.{path.stem}")
    assert inspect.ismodule(getattr(importlib.import_module("bnncert"), path.stem))
