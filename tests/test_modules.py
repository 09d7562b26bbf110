"""Module boundaries: no package module imports or reads a single-underscore
name of another package module.  Each representation then has one owner:
coefficient lists are known to polyarith alone and index matrices to oracle
alone, and the other modules go through their public names."""

import ast
from pathlib import Path

import sl2ab

PACKAGE = "sl2ab"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _imported_module(node: ast.ImportFrom) -> str | None:
    """The package module a `from ... import` reads from: its name, "" for
    the package itself, or None when it is not the package."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module == PACKAGE:
        return ""
    if node.level == 0 and (node.module or "").startswith(PACKAGE + "."):
        return node.module[len(PACKAGE) + 1 :]
    return None


def private_uses(sources: dict[str, str]) -> list[tuple[str, str, str]]:
    """(module, other, name) for each `from .other import _name` and each
    read `other._name` in sources, which maps a package module's name to its
    text; other is the module bound by `from . import other`, under any
    alias."""
    out = []
    for module, text in sorted(sources.items()):
        tree = ast.parse(text)
        bound = {}  # a local name -> the package module it is bound to
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = _imported_module(node)
            if source == "":
                for alias in node.names:
                    bound[alias.asname or alias.name] = alias.name
            elif source is not None and source != module:
                names = [alias.name for alias in node.names]
                out += [(module, source, name) for name in names if _private(name)]
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and bound.get(node.value.id, module) != module
                and _private(node.attr)
            ):
                out.append((module, bound[node.value.id], node.attr))
    return out


def _package_sources() -> dict[str, str]:
    directory = Path(sl2ab.__file__).parent
    return {path.stem: path.read_text() for path in directory.glob("*.py")}


def test_no_module_reads_another_modules_private_names():
    sources = _package_sources()
    assert {"oracle", "polyarith", "splitting", "verify"} <= set(sources)
    assert private_uses(sources) == []


def test_private_uses_finds_imports_and_reads():
    sources = {
        "a": "from .b import _x, y\nfrom sl2ab.c import _z\n",
        "b": "from . import c as cc, a\nv = cc._w + a.y + a.__name__\n_x = 1\n",
        "c": "from . import c\nfrom .c import _own\nv = c._own\n",
        "d": "from os import _exit\nimport sl2ab\n",
    }
    assert private_uses(sources) == [
        ("a", "b", "_x"),
        ("a", "c", "_z"),
        ("b", "c", "_w"),
    ]
