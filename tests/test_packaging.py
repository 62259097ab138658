"""Every third-party module the package imports is a declared dependency, and
the README's Python examples run against the package as it is."""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = pathlib.Path(__file__).resolve().parents[1]


def third_party_imports(package: pathlib.Path) -> set[str]:
    """Top-level names of the absolute imports under package, function-local ones
    included, leaving out the standard library and the package itself."""
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {package.name}


def test_third_party_imports_are_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9._-]+", spec).group().lower().replace("-", "_")
                for spec in project["dependencies"]}
    imported = third_party_imports(ROOT / "src" / "grassmoment")
    assert imported, "the scan found no third-party import at all"
    assert imported <= declared, f"imported but not declared: {sorted(imported - declared)}"


def test_readme_python_blocks_run():
    # An API change that leaves an example stale fails here, not in a reader's hands.
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "the README holds no python block"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
