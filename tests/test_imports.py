"""Every module-level import in the package is used or re-exported, the
scalar ``bisect`` stays verify's own, and the CLI's import stays light."""
from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ringchain"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [
        name
        for name in _imported_names(tree)
        if name not in used
        and name not in _exported(tree)
    ]
    assert not unused, f"{path.name} imports {unused} without using them"


def test_only_verify_imports_the_scalar_bisect():
    # Criterion 5's oracle bisects with its own scalar ``bisect``, so it
    # stays independent of the batched engine it checks; every solver
    # runs on that one engine.
    importers = {
        path.stem
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[-1] == "_rootfind"
        and any(a.name == "bisect" for a in node.names)
    }
    assert importers == {"verify"}


def test_cli_import_leaves_out_the_process_pool():
    # ``verify`` imports its worker pool when it runs, so that every
    # command's start-up does not pay for it.
    code = (
        "import sys, ringchain.cli; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
