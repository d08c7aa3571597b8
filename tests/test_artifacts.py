"""Checked-in artifact corpus: CLI outputs stay byte-identical between changes.

``artifacts.json`` maps each argv below to the exit code and the sha256
of stdout and stderr of ``ringchain.cli.main``, run in process.  The
``runtime_seconds`` lines of ``verify --format json`` are removed before
hashing.  A digest may change only with a fix of a shown defect, listed
in CHANGES.md.  Digests are platform-bound (``cosh`` and friends differ
in the last ulp between libms), so on another machine or numpy the test
skips.  Regenerate with ``PYTHONPATH=src python tests/test_artifacts.py``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import re
from pathlib import Path

import numpy as np
import pytest

from ringchain.cli import main

CORPUS = Path(__file__).with_name("artifacts.json")
PI = "3.141592653589793"
SWEEP = ["--theta-start", "0", "--theta-stop", PI, "--theta-count", "128", "--nmax", "5"]
ARGVS = [
    ["eigenvalues", "--alpha", "3.1", *SWEEP],
    ["eigenvalues", "--alpha", "3.1", *SWEEP, "--format", "json"],
    ["eigenvalues", "--alpha", "-3.1", *SWEEP],
    ["eigenvalues", "--alpha", "-3.1", *SWEEP, "--format", "json"],
    ["eigenvalues", "--alpha", "-2.6", *SWEEP],
    ["eigenvalues", "--alpha", "2.5", *SWEEP],  # exits 3
    ["eigenvalues", "--alpha", "-1", *SWEEP],  # exits 3
    ["eigenvalues", "--alpha", "-4", "--theta-start", "0", "--theta-stop", "0.05",
     "--theta-count", "16", "--nmax", "3"],
    # Count 9 puts a node on the singular angle pi/2 of gap 2.
    ["eigenvalues", "--alpha", "3", "--theta-start", "0", "--theta-stop", PI,
     "--theta-count", "9", "--nmax", "4"],
    ["bands", "--alpha", "3"],
    ["bands", "--alpha", "-3"],
    ["bands", "--alpha", "-3", "--format", "json"],
    ["bands", "--alpha", "-2.6"],
    ["bands", "--alpha", "-3.5", "--emax", "50"],
    ["bands", "--alpha", "0.25"],
    ["bands", "--alpha", "-0.5"],
    ["bands", "--alpha", "1e-3"],
    ["bands", "--alpha", "1e-6"],
    ["bands", "--alpha=-1e-6", "--emax", "100"],
    ["bands", "--alpha", "1e-9", "--emax", "100"],
    ["bands", "--alpha", repr(-8.0 / np.pi), "--emax", "10"],
    ["resonances", "--alpha", "3", "--nmax", "8"],
    ["resonances", "--alpha", "3", "--nmax", "8", "--format", "json"],
    ["resonances", "--alpha", "3", "--nmax", "4", "--parity", "-", "--branch", "upper"],
    ["eigenvalues", "--alpha", "3", "--theta", "1.0", "--nmax", "3", "--format", "json"],
    ["verify", "--format", "json"],
]


def run(argv: list[str]) -> dict:
    """Exit code and output digests of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    stdout = out.getvalue()
    if argv[0] == "verify":
        stdout = re.sub(r'(?m)^ *"runtime_seconds": .*\n', "", stdout)
    return {
        "exit": code,
        "stdout": hashlib.sha256(stdout.encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def platform_key() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def regenerate() -> None:
    corpus = {**platform_key(), "artifacts": {" ".join(a): run(a) for a in ARGVS}}
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def corpus() -> dict:
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    here = platform_key()
    recorded = {k: corpus[k] for k in here}
    if recorded != here:
        pytest.skip(f"digests recorded on {recorded}, this is {here}: libm ulps differ")
    return corpus["artifacts"]


def test_corpus_covers_every_argv(corpus):
    assert sorted(corpus) == sorted(" ".join(a) for a in ARGVS)


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_artifact_is_unchanged(argv, corpus):
    assert run(argv) == corpus[" ".join(argv)]


if __name__ == "__main__":
    regenerate()
