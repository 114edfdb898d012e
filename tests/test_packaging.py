"""The package metadata in ``pyproject.toml`` is what setuptools sees."""

from __future__ import annotations

import importlib
import re
import subprocess
import sys
from pathlib import Path

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_setup_py_reads_project_name():
    completed = subprocess.run(
        [sys.executable, "setup.py", "--name"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert completed.stdout.strip() == "repro"


def test_console_script_targets_cli_main():
    # A line match instead of tomllib, which Python 3.10 lacks.
    pyproject = (REPO_ROOT / "pyproject.toml").read_text()
    target = re.search(r'^repro = "([\w.]+:\w+)"$', pyproject, re.MULTILINE)
    assert target is not None
    module, _, attribute = target.group(1).partition(":")
    assert getattr(importlib.import_module(module), attribute) is main
