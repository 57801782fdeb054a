"""Module boundaries inside the package: no module imports or reads a
private (underscore) name of another cyclosum module."""

import ast
from pathlib import Path

import cyclosum

PACKAGE = Path(cyclosum.__file__).parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node: ast.ImportFrom) -> bool:
    return node.level == 1 or (node.module or "").split(".")[0] == "cyclosum"


def _reach_throughs(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    module_names = set()  # local names bound to sibling modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _package_module(node):
            for alias in node.names:
                if node.module in (None, "cyclosum"):
                    module_names.add(alias.asname or alias.name)
                elif _is_private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("cyclosum.") and alias.asname:
                    module_names.add(alias.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_names
            and _is_private(node.attr)
        ):
            found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def test_no_module_reaches_into_another_modules_private_names():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _reach_throughs(path)
    assert found == []


def test_the_walk_sees_both_forms_of_reach_through(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .weights import _layers, compute_weight_set\n"
        "from . import gf\n"
        "gf._build_tables(2, 1, (0, 1))\n"
        "gf.build_field(2)\n"
    )
    assert _reach_throughs(probe) == [
        "probe.py:1 imports weights._layers",
        "probe.py:3 reads gf._build_tables",
    ]
