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

And every parameter of a module-level function or a method (dunders
again exempt) is used by the package's own calls, matched by short name
as above: a call passes a parameter by keyword, by enough positional
arguments after ``self``, or by ``*args``/``**kwargs``; a function
handed to a call as keyword ``k``, as ``set_defaults(run=f)`` hands
``f``, counts every call named ``k`` as its own.  A default must
be left out by at least one package call, and every parameter must be
passed by at least one, except the few in ``PASSED_ONLY_BY_TESTS``.  So
each default has one home: a value that only tests set is passed by
them, as the config keys' defaults are taken from ``SimConfig``.
"""

import ast
import math
from collections import defaultdict
from dataclasses import fields
from pathlib import Path

from leochan.config import SimConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "leochan"
CONSOLE_SCRIPT = "cli.main"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# Parameters that no package call passes, each with its reason.
PASSED_ONLY_BY_TESTS = {
    "cli.main(argv)":
        "tests and the benchmark drive the CLI through it",
    "passes.find_pass(search_hours)":
        "the every-step oracle comparison and the 'does not set within the "
        "horizon' path need a 3 h horizon",
    "tracer.build_launch_plane(extent_pad_km)":
        "C06 sets its grids' pad, and a gate's input may not be resized",
}


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


def _parameters():
    """(``module.function(parameter)``, short name, positional index or
    None for a keyword-only parameter, whether it has a default) for
    every parameter of a module-level function or a method, ``self``
    left out."""
    params = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, FUNCTIONS):
                found = [(node.name, node, 0)]
            elif isinstance(node, ast.ClassDef):
                found = [(f"{node.name}.{m.name}", m, 1) for m in node.body
                         if isinstance(m, FUNCTIONS)
                         and not _is_dunder(m.name)]
            else:
                continue
            for name, fn, skip in found:
                a = fn.args
                positional = a.posonlyargs + a.args
                first_default = len(positional) - len(a.defaults)
                qualified = f"{path.stem}.{name}"
                params += [(f"{qualified}({p.arg})", fn.name, i - skip,
                            i >= first_default)
                           for i, p in enumerate(positional) if i >= skip]
                params += [(f"{qualified}({p.arg})", fn.name, None,
                            default is not None)
                           for p, default in zip(a.kwonlyargs, a.kw_defaults)]
    return params


def _calls():
    """{short name: [(positional count, keyword names)]} of every call
    in package code; ``*args`` counts as every position and ``**kwargs``
    as the keyword name None.  A name passed as ``k=name`` also gets the
    calls named ``k``."""
    calls = defaultdict(list)
    handed = defaultdict(set)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            n = (math.inf if any(isinstance(a, ast.Starred)
                                 for a in node.args) else len(node.args))
            calls[name].append((n, {k.arg for k in node.keywords}))
            for k in node.keywords:
                if isinstance(k.value, ast.Name) and k.arg not in (
                        None, k.value.id):
                    handed[k.value.id].add(k.arg)
    for name, keywords in handed.items():
        calls[name] += [c for k in keywords for c in calls[k]]
    return calls


def parameter_use() -> tuple[list[str], list[str]]:
    """(parameters whose default every package call overrides,
    parameters no package call passes), as ``module.function(name)``."""
    calls = _calls()
    overridden, never_passed = [], []
    for qualified, short, index, has_default in _parameters():
        name = qualified[qualified.index("(") + 1:-1]
        passes = [(index is not None and index < n) or name in kw
                  or None in kw for n, kw in calls[short]]
        if has_default and all(passes):
            overridden.append(qualified)
        if not any(passes):
            never_passed.append(qualified)
    return overridden, never_passed


def test_every_parameter_default_is_left_out_by_a_package_call():
    overridden = parameter_use()[0]
    assert not overridden, ("defaults every package call overrides: "
                            + ", ".join(overridden))


def test_every_parameter_is_passed_by_a_package_call():
    never_passed = parameter_use()[1]
    unexpected = sorted(set(never_passed) - set(PASSED_ONLY_BY_TESTS))
    stale = sorted(set(PASSED_ONLY_BY_TESTS) - set(never_passed))
    assert not unexpected, ("parameters no package call passes: "
                            + ", ".join(unexpected))
    assert not stale, ("exempt, yet a package call passes them or they are "
                       "gone: " + ", ".join(stale))
