"""Every ``repro`` subpackage imports cleanly as the first ``repro``
import of a fresh interpreter.

Package ``__init__`` modules that re-export from each other can form
cycles that only bite when a particular subpackage is imported first
(the test process itself has long since imported everything, so only a
new interpreter shows it).
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SUBPACKAGES = sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


def test_subpackages_found():
    assert {"repro.core", "repro.engine", "repro.parallel"} <= set(
        SUBPACKAGES
    )


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_first_import(package):
    env = dict(os.environ, PYTHONPATH=SRC)
    completed = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
