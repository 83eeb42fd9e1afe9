"""One public surface: every name a formctl module exports has a caller.

A name in a module's ``__all__`` must be used somewhere in the package, the
scripts or the benchmark: read as a name or an attribute, imported, or
spelled out as a string (the benchmark patches functions by name). Its own
``def`` or ``class`` line, its ``__all__`` entry and the re-export in
``formctl/__init__.py`` do not count as a use. Tests do not count either:
a name that only a test calls belongs in the test helpers.
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import pkgutil

import formctl

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "formctl"
CALLERS = sorted([*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
                  *(ROOT / "perfbench").glob("*.py")])

# name -> why it may stay without a caller
EXEMPT = {
    "bracket": "the dense commutator is the other side of the exact case table "
               "(criterion 2) until the Lie closure runs on sparse integer matrices",
}


def _uses(path: pathlib.Path) -> set[str]:
    """Identifiers that the file reads, imports or names in a string."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skipped = {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
               for node in ast.walk(stmt)}
    uses = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            uses.add(node.id)
        elif isinstance(node, ast.Attribute):
            uses.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and path != PACKAGE / "__init__.py":
            uses.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            uses.add(node.value)
    return uses


def _exports() -> dict[str, str]:
    """Each exported name, mapped to the module that exports it."""
    out = {}
    for info in pkgutil.iter_modules(formctl.__path__):
        module = importlib.import_module(f"formctl.{info.name}")
        out.update((name, info.name) for name in getattr(module, "__all__", ()))
    return out


def test_every_exported_name_has_a_caller():
    used = set().union(*map(_uses, CALLERS))
    exports = _exports()
    unused = {name for name in exports if name not in used}
    # an exemption goes once its name is gone or has found a caller
    assert unused == set(EXEMPT), \
        f"without a caller: {sorted(f'{exports[n]}.{n}' for n in unused)}; exempt: {sorted(EXEMPT)}"
