"""Every third-party package ``src/`` imports is a declared dependency.

A clean install gets exactly ``pyproject.toml``'s ``dependencies``, so
an import outside them works only on machines that happen to have the
package.  ``pyproject.toml`` is read with a small regex parser, since
``tomllib`` is missing before Python 3.11; where ``tomllib`` exists the
parser is checked against it.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIRST_PARTY = {"repro"}


def declared_dependencies(text: str) -> set:
    """Import-style names (lower case, ``-`` as ``_``) of the
    ``[project]`` table's ``dependencies`` array."""
    project = re.search(r"^\[project\]\s*$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert project, "pyproject.toml has no [project] table"
    # The closing bracket is the first one outside a quoted string
    # (extras such as "pkg[extra]" hold brackets of their own).
    array = re.search(
        r"^dependencies\s*=\s*\[((?:\"[^\"]*\"|'[^']*'|[^\]])*)\]",
        project.group(1),
        re.M,
    )
    assert array, "[project] declares no dependencies array"
    strings = re.findall(r"\"([^\"]*)\"|'([^']*)'", array.group(1))
    names = [
        re.match(r"\s*([A-Za-z0-9][A-Za-z0-9._-]*)", double or single)
        for double, single in strings
    ]
    return {name.group(1).lower().replace("-", "_") for name in names}


def imported_packages(root: Path) -> dict:
    """Top-level package of every absolute import under ``root``,
    mapped to one ``path:line`` that imports it."""
    packages = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                packages.setdefault(
                    module.split(".")[0],
                    "%s:%d" % (path.relative_to(root.parent), node.lineno),
                )
    return packages


def test_third_party_imports_are_declared():
    stdlib = getattr(sys, "stdlib_module_names", None)
    if stdlib is None:
        pytest.skip("sys.stdlib_module_names needs Python 3.10+")
    declared = declared_dependencies(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    )
    undeclared = {
        package: where
        for package, where in imported_packages(ROOT / "src").items()
        if package not in stdlib
        and package not in FIRST_PARTY
        and package.lower() not in declared
    }
    assert not undeclared, (
        "imported by src/ but missing from pyproject.toml dependencies: %s"
        % ", ".join("%s (%s)" % item for item in sorted(undeclared.items()))
    )


def test_parser_agrees_with_tomllib():
    tomllib = pytest.importorskip("tomllib")
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    requirements = tomllib.loads(text)["project"]["dependencies"]
    names = {
        re.match(r"[A-Za-z0-9][A-Za-z0-9._-]*", requirement).group(0)
        for requirement in requirements
    }
    assert declared_dependencies(text) == {
        name.lower().replace("-", "_") for name in names
    }


def test_parser_reads_multiline_arrays():
    text = (
        '[build-system]\nrequires = ["setuptools"]\n\n'
        "[project]\nname = \"x\"\ndependencies = [\n"
        '    "NumPy>=1.21",\n    "Pint[numpy]>=0.2",\n'
        '    \'typing-extensions; python_version<"3.8"\',\n]\n\n'
        '[project.optional-dependencies]\ndev = ["pytest"]\n'
    )
    assert declared_dependencies(text) == {
        "numpy", "pint", "typing_extensions"
    }
