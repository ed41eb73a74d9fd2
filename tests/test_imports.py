"""Every import of the package resolves, function-level ones included.

Walks the AST of each ``.py`` file of the package, the tools, the
benchmark, the tests and the two top-level scripts.  For every
``from gazetteer_search_ray... import name`` and every relative import,
the target module must import and hold ``name`` (or have a submodule of
that name); for every ``import gazetteer_search_ray...`` the module must
import.  A module-level import smoke test would miss an import that only
runs inside a function.  Imports only; no Ray session is started.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PKG = "gazetteer_search_ray"


def _sources() -> list[Path]:
    files = [REPO / "bench.py", REPO / "__ray_entry__.py"]
    for d in (PKG, "tools", "perfbench", "tests"):
        files += sorted((REPO / d).rglob("*.py"))
    return files


def _package_of(path: Path) -> str | None:
    """The package a relative import in ``path`` is resolved against."""
    rel = path.relative_to(REPO)
    if rel.parts[0] != PKG:
        return None
    parts = list(rel.with_suffix("").parts)
    return ".".join(parts if parts[-1] == "__init__" else parts[:-1])


def _imports(path: Path) -> list[tuple[int, str, str | None]]:
    """(line, absolute module, imported name or None) for every import
    of the package in ``path``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.name, None) for a in node.names
                    if a.name.split(".")[0] == PKG]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                pkg = _package_of(path)
                assert pkg is not None, f"{path}:{node.lineno}: relative import"
                mod = importlib.util.resolve_name(
                    "." * node.level + (node.module or ""), pkg)
            else:
                mod = node.module or ""
            if mod.split(".")[0] == PKG:
                out += [(node.lineno, mod, a.name) for a in node.names]
    return out


def _missing(mod: str, name: str | None) -> str | None:
    try:
        m = importlib.import_module(mod)
    except ImportError as e:
        return f"module {mod}: {e}"
    if name is None or name == "*" or hasattr(m, name):
        return None
    try:
        importlib.import_module(f"{mod}.{name}")
    except ModuleNotFoundError:
        return f"{mod} has no {name}"
    return None


def test_every_package_import_resolves():
    files = _sources()
    assert len(files) > 20
    dangling = []
    seen = 0
    for path in files:
        for line, mod, name in _imports(path):
            seen += 1
            err = _missing(mod, name)
            if err:
                dangling.append(f"{path.relative_to(REPO)}:{line}: {err}")
    assert seen > 100
    assert not dangling, "\n".join(dangling)
