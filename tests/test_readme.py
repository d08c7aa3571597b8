"""Every ``ringchain`` command in the README's ``sh`` blocks runs as documented."""
from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import ringchain

README = Path(__file__).resolve().parents[1] / "README.md"
# Criteria that fail by design; a verify selection containing one exits 1.
EXPECTED_FAILURES = ("6-coefficient", "7", "12")


def readme_commands() -> list[list[str]]:
    """Argument lists of the ``ringchain`` lines, continuations joined."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] == "ringchain":
                commands.append(words[1:])
    return commands


def expected_exit(args: list[str]) -> int:
    if args[0] != "verify":
        return 0
    if "--criteria" not in args:
        return 1  # all criteria, the expected failures included
    selected = args[args.index("--criteria") + 1].split(",")
    return int(any(lab in selected or lab.split("-")[0] in selected for lab in EXPECTED_FAILURES))


def test_readme_has_commands():
    subcommands = {args[0] for args in readme_commands()}
    assert subcommands == {"bands", "eigenvalues", "resonances", "verify"}


@pytest.mark.parametrize("args", readme_commands(), ids=" ".join)
def test_readme_command_runs(args, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(ringchain.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ringchain.cli", *args],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == expected_exit(args), proc.stderr
