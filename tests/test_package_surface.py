"""Every function, class, method and module-level constant in
``src/leochan`` is used by the package itself.

A name counts as used when live code refers to it by name or as an
attribute.  Live code is each module's top-level statements other than
constant assignments, the console script ``cli.main``, and the body of
every definition that live code uses, followed to a fixed point; a
constant's body is the expression assigned to it.  A reference inside a
definition's own body, or inside code nothing live reaches, does not
count, and neither does an import.  Dunder methods and dunder names,
such as ``__all__``, are exempt: Python reads them.  Oracles and
fixtures that only the tests call belong under ``tests/``.

Likewise every ``SimConfig`` field, a config key, is read as an attribute
by package code outside ``__post_init__``, which checks the record but
does not use it: a key that no run reads fails here.
"""

import ast
from dataclasses import fields
from pathlib import Path

from leochan.config import SimConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "leochan"
CONSOLE_SCRIPT = "cli.main"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _referenced(nodes) -> set[str]:
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _constants(node) -> list[str]:
    """The names a module-level assignment binds, when it binds only
    plain names and none of them is a dunder; else none."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets = [node.target]
    else:
        return []
    if not all(isinstance(t, ast.Name) and not _is_dunder(t.id)
               for t in targets):
        return []
    return [t.id for t in targets]


def _definitions():
    """({qualified name: (short name, names its body refers to)},
    names the modules' top-level statements refer to)."""
    defs = {}
    top_level = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            constants = _constants(node)
            for name in constants:
                defs[f"{module}.{name}"] = (name, _referenced([node.value]))
            if constants:
                continue
            if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                top_level |= _referenced([node])
                continue
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body
                           if isinstance(m, FUNCTIONS)
                           and not _is_dunder(m.name)]
                for m in methods:
                    defs[f"{module}.{node.name}.{m.name}"] = (
                        m.name, _referenced([m]))
                # a dunder runs with its class, so it counts as the class's
                own = [s for s in node.body if s not in methods]
                defs[f"{module}.{node.name}"] = (
                    node.name, _referenced(node.decorator_list + node.bases
                                           + own))
            else:
                defs[f"{module}.{node.name}"] = (node.name,
                                                 _referenced([node]))
    return defs, top_level


def unused_names() -> list[str]:
    defs, used = _definitions()
    live = {CONSOLE_SCRIPT}
    used |= defs[CONSOLE_SCRIPT][1]
    grew = True
    while grew:
        grew = False
        for qualified, (short, refs) in defs.items():
            if qualified not in live and short in used:
                live.add(qualified)
                used |= refs
                grew = True
    return sorted(set(defs) - live)


def test_every_package_name_is_used_by_the_package():
    unused = unused_names()
    assert not unused, "not used by src/leochan: " + ", ".join(unused)


def attributes_read() -> set[str]:
    """The attribute names that package code loads, outside every
    ``__post_init__``."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        checks = {id(sub) for node in ast.walk(tree)
                  if isinstance(node, FUNCTIONS)
                  and node.name == "__post_init__"
                  for sub in ast.walk(node)}
        names |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)
                  and id(node) not in checks}
    return names


def test_every_config_key_is_read_by_the_package():
    unread = sorted({f.name for f in fields(SimConfig)} - attributes_read())
    assert not unread, "config keys no package code reads: " + ", ".join(
        unread)
