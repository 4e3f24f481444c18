"""Every third-party module the tier-1 suite imports is declared.

Tier-1 is ``tests/`` plus ``bench/tests/``.  A module counts as third
party when it is neither in the standard library nor a first-party
module of this repository (the ``src/`` package, or a top-level script
under the repository root, ``bench/`` or ``tools/``, which the suites
import by putting those directories on ``sys.path``).  Each such module
must belong to a requirement in ``pyproject.toml``: ``dependencies`` or
one of the optional extras, so ``pip install -e ".[stats,test]"`` is
enough to run the suite.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SUITES = (ROOT / "tests", ROOT / "bench" / "tests")
FIRST_PARTY_DIRS = (ROOT / "src", ROOT, ROOT / "bench", ROOT / "tools")


def imported_top_levels(path):
    """Top-level names of the absolute imports in one file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def is_first_party(name):
    return any(
        (base / name).is_dir() or (base / f"{name}.py").is_file()
        for base in FIRST_PARTY_DIRS
    )


def declared_requirements():
    """Normalised names of ``dependencies`` and every extra.

    A small reader for the two array forms ``pyproject.toml`` uses, so
    the check needs no TOML parser on Pythons without ``tomllib``.
    """
    text = (ROOT / "pyproject.toml").read_text()
    section = None
    arrays = []
    for match in re.finditer(r"^\[([^\]]+)\]|^(\w[\w-]*)\s*=\s*\[([^\]]*)\]", text, re.M):
        if match.group(1) is not None:
            section = match.group(1)
        elif (section, match.group(2)) == ("project", "dependencies") or (
            section == "project.optional-dependencies"
        ):
            arrays.append(match.group(3))
    requirements = set()
    for array in arrays:
        for spec in re.findall(r'"([^"]+)"', array):
            requirements.add(normalise(re.match(r"[A-Za-z0-9._-]+", spec).group(0)))
    return requirements


def normalise(name):
    return re.sub(r"[-_.]+", "-", name).lower()


def distributions_of(module):
    """Distribution names that provide ``module`` (itself if unknown)."""
    from importlib.metadata import packages_distributions

    return {normalise(d) for d in packages_distributions().get(module, [module])}


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="sys.stdlib_module_names is 3.10+"
)
def test_every_third_party_import_is_declared():
    third_party = set()
    for suite in SUITES:
        for path in sorted(suite.rglob("*.py")):
            third_party.update(
                name
                for name in imported_top_levels(path)
                if name not in sys.stdlib_module_names and not is_first_party(name)
            )
    assert {"pytest", "hypothesis"} <= third_party  # the scan sees the suites
    declared = declared_requirements()
    undeclared = sorted(m for m in third_party if not distributions_of(m) & declared)
    assert not undeclared, (
        f"imported by tier-1 but not in pyproject.toml dependencies or extras: {undeclared}"
    )
