"""The package version is declared once: pyproject.toml and repro.__version__ agree."""

from __future__ import annotations

import re
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_version_matches_package_version():
    # tomllib is 3.11+; the [project] version line is simple enough to match.
    project = PYPROJECT.read_text().split("[project]", 1)[1].split("\n[", 1)[0]
    match = re.search(r'^version\s*=\s*"([^"]+)"', project, re.M)
    assert match, "pyproject.toml has no [project] version"
    assert match.group(1) == repro.__version__
