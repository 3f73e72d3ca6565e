"""Every third-party module the tests import unconditionally is declared.

A clean ``pip install -e .[test]`` must be enough to collect the suite: a
module imported at the top level of a test module, but declared neither in
the project's ``dependencies`` nor in its ``test`` extra, stops collection
on a fresh runner.
"""

from __future__ import annotations

import ast
import re
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"


def _names(requirements: str) -> set[str]:
    """Normalised distribution names of a TOML list of requirement strings."""
    return {
        re.split(r"[\s\[<>=!~;]", spec, maxsplit=1)[0].lower().replace("_", "-")
        for spec in re.findall(r'"([^"]+)"', requirements)
    }


def declared_distributions() -> set[str]:
    """``dependencies`` plus the ``test`` extra of ``pyproject.toml``."""
    text = PYPROJECT.read_text()
    runtime = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S)
    extra = re.search(
        r"^\[project\.optional-dependencies\].*?^test = \[(.*?)\]", text, re.M | re.S
    )
    assert runtime and extra, "pyproject.toml declares no dependencies or no test extra"
    return _names(runtime[1]) | _names(extra[1])


def unconditional_imports(path: Path) -> set[str]:
    """Top-level packages imported by statements at the top level of ``path``."""
    packages = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Import):
            packages |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            packages.add(node.module.split(".")[0])
    return packages


def test_every_unconditional_third_party_import_is_declared():
    local = {"repro"} | {path.stem for path in TESTS.glob("*.py")}
    distributions = packages_distributions()
    declared = declared_distributions()
    undeclared = {}
    for path in sorted(TESTS.glob("*.py")):
        for package in unconditional_imports(path) - local - set(sys.stdlib_module_names):
            names = {
                name.lower().replace("_", "-")
                for name in distributions.get(package, [package])
            }
            if not names & declared:
                undeclared.setdefault(package, []).append(path.name)
    assert not undeclared, f"imported by tests but not declared: {undeclared}"


def test_the_checker_sees_a_module_level_import(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "import numpy as np\nfrom hypothesis import given\n"
        "try:\n    import torch\nexcept ImportError:\n    torch = None\n"
        "def later():\n    import scipy\n"
    )
    assert unconditional_imports(module) == {"numpy", "hypothesis"}
