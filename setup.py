"""Setuptools shim; all project metadata lives in ``pyproject.toml``.

Without the ``wheel`` package, PEP 517/660 installs (which build a
wheel) are unavailable, and so is ``pip install -e . --no-use-pep517``.
This file keeps the legacy offline route working: inside a virtualenv
created with ``--system-site-packages`` (so numpy comes from the host),
``python setup.py develop`` installs the package in development mode
together with the ``repro`` console script.
"""

from setuptools import setup

setup()
