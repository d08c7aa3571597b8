"""Every module-level import in the package is used or re-exported, the
scalar ``bisect`` stays verify's own, one dispatcher routes every gap
eigenvalue, the CLI's import stays light and single-threaded, and each
command loads only the modules it runs."""
from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringchain
from ringchain.verify import _usable_cpus

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


def test_only_the_sector_dispatcher_calls_the_sector_solvers():
    # ``gaps._sector_roots`` alone decides which solver serves which
    # (coupling, gap, parity) sector, so every query gets the same root.
    solvers = {"_gap_roots", "_negative_even_roots", "_signed_odd_roots"}
    callers = {
        (path.stem, func.name, getattr(node.func, "id", getattr(node.func, "attr", None)))
        for path in PACKAGE.glob("*.py")
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in solvers
    }
    assert callers == {("gaps", "_sector_roots", name) for name in solvers}


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


def _fresh_cli_import(**given: str) -> tuple[int, str]:
    """OS threads and ``OPENBLAS_NUM_THREADS`` of a child after ``import ringchain.cli``.

    This process imported ``ringchain`` already, so the child starts from
    an environment without the thread variables, plus ``given``.
    """
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    }
    env.update(given)
    code = (
        "import os, ringchain.cli; print(len(os.listdir('/proc/self/task')), "
        "os.environ.get('OPENBLAS_NUM_THREADS'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    count, value = proc.stdout.split()
    return int(count), value


needs_thread_count = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or _usable_cpus() < 2,
    reason="needs /proc/self/task and at least 2 usable CPUs",
)


@needs_thread_count
def test_cli_import_runs_one_thread():
    # numpy's OpenBLAS starts a worker per usable CPU when it loads unless
    # ``OPENBLAS_NUM_THREADS`` says otherwise; the package sets it to 1.
    assert _fresh_cli_import() == (1, "1")


@needs_thread_count
def test_cli_import_keeps_the_callers_blas_threads():
    assert _fresh_cli_import(OPENBLAS_NUM_THREADS="2")[1] == "2"


def test_commands_that_do_not_draw_leave_out_numpy_random():
    # Loading ``numpy.random`` costs start-up time and peak memory; only
    # verify's criteria draw samples, so no other command may load it.
    code = (
        "import contextlib, io, sys\n"
        "import ringchain.cli as cli\n"
        "loaded = ['numpy.random' in sys.modules]\n"
        "for argv in (['eigenvalues', '--alpha', '3', '--theta', '1', '--nmax', '2'],\n"
        "             ['resonances', '--alpha', '3', '--nmax', '1', '--theta-count', '8']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    loaded.append('numpy.random' in sys.modules)\n"
        "print(loaded)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[False, False, False]"


def _child(code: str):
    """Run ``code`` in a fresh interpreter; its last line of output as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m == 'numpy' or m.startswith('ringchain.'))"


def _run_main(argv: list[str]) -> tuple[int, list[str]]:
    """Exit code of ``main(argv)`` in a fresh interpreter, and the modules it loaded."""
    return tuple(_child(
        "import contextlib, io, json, sys\n"
        "import ringchain.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        f"print(json.dumps([code, {LOADED}]))\n"
    ))


def test_cli_import_loads_no_engine_and_no_numpy():
    assert _child(f"import json, sys, ringchain.cli; print(json.dumps({LOADED}))") == [
        "ringchain.cli"
    ]


ENGINE = {
    "bands": ["_core", "_rootfind", "bands", "dispersion"],
    "eigenvalues": ["_core", "_rootfind", "bands", "dispersion", "gaps"],
    "resonances": ["_core", "resonance"],
    "verify": [p.stem for p in MODULES if p.stem != "cli"],
}
# The resonance trace is scalar ``cmath`` code, so its command loads no numpy.
NUMPY = {"bands": True, "eigenvalues": True, "resonances": False, "verify": True}


@pytest.mark.parametrize(
    "argv",
    [
        ["bands", "--alpha", "3"],
        ["eigenvalues", "--alpha", "3", "--theta", "1", "--nmax", "2"],
        ["resonances", "--alpha", "3", "--nmax", "1", "--theta-count", "8"],
        ["resonances", "--alpha", "3", "--nmax", "1", "--theta-count", "8", "--format", "json"],
        ["verify", "--criteria", "1"],
    ],
    ids=["bands", "eigenvalues", "resonances", "resonances-json", "verify"],
)
def test_each_command_loads_only_the_modules_it_runs(argv):
    numpy = ["numpy"] if NUMPY[argv[0]] else []
    want = sorted([*numpy, "ringchain.cli", *(f"ringchain.{m}" for m in ENGINE[argv[0]])])
    assert _run_main(argv) == (0, want)


# Each resonance function that builds arrays imports numpy and the engine
# names it needs when called.  ``r`` is ``ringchain.resonance``; the first
# two calls load numpy, ``bands`` and ``_rootfind`` themselves.
LAZY_CALLS = """
sp = r.SingularPoint(2, 1, "+")
out = [
    r.count_zeros_box(3.0, sp.theta0 + 0.3, "+", 1.8, 2.1, -0.2, 0.1),
    list(vars(r.fit_branch_exponent(3.0, sp)).values()),
]
import numpy as np
from ringchain.bands import gap_intervals
zs = np.array([0.5 + 0.1j, 1.5 - 0.3j, 2.5 + 0j])
out.append([[z.real, z.imag] for z in r.resonance_residual_grid(zs, 3.0, 1.1, "-").tolist()])
gap = gap_intervals(3.0, 2)[2]
thetas = np.array([sp.theta0 - 5e-3, sp.theta0 + 5e-3])
out.append(r.real_branch_offset(3.0, gap, thetas, "+").tolist())
out.append(r.fit_gentle_coefficient(3.0, gap))
"""


def test_resonance_functions_import_numpy_when_called():
    got = _child(
        "import json, sys\n"
        "from ringchain import resonance as r\n"
        f"loaded = {LOADED}\n"
        f"{LAZY_CALLS}\n"
        "print(json.dumps([loaded, json.dumps(out)]))\n"
    )
    here = {"r": importlib.import_module("ringchain.resonance")}
    exec(LAZY_CALLS, here)
    assert got == [["ringchain._core", "ringchain.resonance"], json.dumps(here["out"])]


@pytest.mark.parametrize(
    "argv, code",
    [(["eigenvalues", "--alpha", "nan", "--theta", "1"], 2), (["--help"], 0)],
    ids=["usage-error", "help"],
)
def test_usage_errors_and_help_leave_numpy_unloaded(argv, code):
    assert _run_main(argv) == (code, ["ringchain.cli"])


def _defining_module(name: str) -> str:
    """The one package module whose top level defines ``name``, read from source."""
    owners = [
        path.stem
        for path in MODULES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name)
        or (isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == name for t in node.targets))
    ]
    assert len(owners) == 1, (name, owners)
    return owners[0]


def test_every_public_name_is_its_defining_modules_object():
    names = [n for n in ringchain.__all__ if n != "__version__"]
    wrong = [
        name for name in names
        if getattr(ringchain, name)
        is not getattr(importlib.import_module(f"ringchain.{_defining_module(name)}"), name)
    ]
    assert len(names) == 51 and not wrong


def test_a_public_name_loads_its_module_on_first_access():
    loaded = _child(
        "import json, sys, ringchain\n"
        f"before = {LOADED}\n"
        "ringchain.gap_eigenvalues\n"
        f"print(json.dumps([before, {LOADED}, 'gap_eigenvalues' in vars(ringchain)]))\n"
    )
    after = ["numpy", *(f"ringchain.{m}" for m in ENGINE["eigenvalues"])]
    assert loaded == [[], sorted(after), True]


@pytest.mark.parametrize("name", ["no_such_name", "_gaps_at", "CRITERION_LABELS"])
def test_an_unknown_attribute_is_an_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(ringchain, name)
