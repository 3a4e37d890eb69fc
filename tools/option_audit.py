"""Option audit of ``src/repro``: which defaulted values does anyone set?

Usage (from the repository root)::

    python tools/option_audit.py
    python tools/option_audit.py --root DIR --package src/pkg

A settable value is a defaulted parameter of a ``def`` (methods and
nested functions included; ``self``/``cls`` and ``*args``/``**kwargs``
are not values) or a defaulted field of a ``@dataclass``. Each one is
keyed by its file, the qualified name of its function or class and its
own name. The audit reads every ``.py`` file under ``src``, ``bench``,
``benchmarks``, ``tests`` and ``examples`` and counts these setters:

* **keyword** — ``f(..., name=value)`` at a call of that function;
* **kwargs key** — a string key ``"name"`` in a dict literal or a
  ``dict(name=...)`` call that is assigned to, or passed as, a name
  ending in ``kwargs`` (``gateway_kwargs={"request_timeout": 1}``),
  and ``kwargs.setdefault("name", ...)`` / ``kwargs["name"] = ...`` on
  such a name;
* **positional** — a positional argument at the parameter's index;
* **attribute** — ``obj.name = value`` on any object but ``self`` or
  ``cls``.

Calls are matched by the callee's last name only: ``x.deploy(...)``
matches every ``def deploy``, ``Gateway(...)`` and ``super().__init__``
match a class's ``__init__`` or its dataclass fields. Kwargs keys and
attribute assignments are matched by the value's name alone. So a
setter may be counted for an option it does not reach: the audit may
report a value as set when it is not, never the reverse (except
through ``**`` unpacking and other dynamic calls, which it cannot see).

A value forwarded unchanged — the argument is the bare name of a
defaulted parameter of the enclosing function — is set only where that
parameter is set: it takes that parameter's group.

Each value is grouped by where its setters are: **drivers** (``src``,
``bench``, ``benchmarks``), **tests or examples only**, or **nobody**.
The report's first line is ``N settable values in PACKAGE: D set by
drivers, T by tests or examples only, U by nobody``; then every value
of the last two groups with its first setter. Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Caller directories and the group a setter in each belongs to.
DRIVERS, TESTS, NOBODY = 2, 1, 0
GROUP_DIRS = (("src", DRIVERS), ("bench", DRIVERS), ("benchmarks", DRIVERS),
              ("tests", TESTS), ("examples", TESTS))
GROUP_NAMES = {DRIVERS: "drivers", TESTS: "tests or examples only",
               NOBODY: "nobody"}

Key = Tuple[str, str, str]  # (file, qualified def or class, value name)


class Option:
    __slots__ = ("key", "line", "callee", "position")

    def __init__(self, key: Key, line: int, callee: str,
                 position: Optional[int]) -> None:
        self.key = key
        self.line = line
        #: The name a call uses to reach it (a class for __init__).
        self.callee = callee
        #: Index among the call's positional arguments, or None.
        self.position = position


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _decorator_names(node) -> Set[str]:
    return {getattr(d, "id", getattr(d, "attr", ""))
            for d in node.decorator_list}


def _function_options(node, path: str, qualified: str, in_class: bool,
                      class_name: str) -> List[Option]:
    args = node.args
    positional = list(args.posonlyargs) + list(args.args)
    if in_class and "staticmethod" not in _decorator_names(node):
        positional = positional[1:]  # self / cls
    callee = class_name if node.name == "__init__" and in_class \
        else node.name
    options = []
    first_default = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        if index >= first_default:
            options.append(Option((path, qualified, arg.arg), arg.lineno,
                                  callee, index))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            options.append(Option((path, qualified, arg.arg), arg.lineno,
                                  callee, None))
    return options


def _dataclass_options(node: ast.ClassDef, path: str,
                       qualified: str) -> List[Option]:
    options = []
    index = 0
    for statement in node.body:
        if not (isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)):
            continue
        if "ClassVar" in ast.dump(statement.annotation):
            continue
        value = statement.value
        if isinstance(value, ast.Call) and any(
                keyword.arg == "init" and isinstance(keyword.value,
                                                     ast.Constant)
                and keyword.value.value is False
                for keyword in value.keywords):
            continue
        if value is not None:
            options.append(Option((path, qualified, statement.target.id),
                                  statement.lineno, node.name, index))
        index += 1
    return options


def collect_options(tree: ast.AST, path: str) -> List[Option]:
    """Every settable value defined in one module."""
    options: List[Option] = []

    def visit(node: ast.AST, scope: str, class_name: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualified = scope + child.name
                options.extend(_function_options(
                    child, path, qualified, bool(class_name), class_name))
                visit(child, qualified + ".", "")
            elif isinstance(child, ast.ClassDef):
                qualified = scope + child.name
                if _is_dataclass(child):
                    options.extend(_dataclass_options(child, path,
                                                      qualified))
                visit(child, qualified + ".", child.name)
            else:
                visit(child, scope, class_name)

    visit(tree, "", "")
    return options


class Setter:
    __slots__ = ("site", "group", "kind", "forwarded")

    def __init__(self, site: str, group: int, kind: str,
                 forwarded: Optional[Key] = None) -> None:
        self.site = site
        self.group = group
        self.kind = kind
        #: The enclosing parameter whose value is passed on, if any.
        self.forwarded = forwarded


def _kwargs_name(node: ast.AST) -> bool:
    """True for a name (or attribute) ending in ``kwargs``."""
    name = node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else ""
    return name.lower().endswith("kwargs")


def _dict_keys(node: ast.AST) -> List[str]:
    if isinstance(node, ast.Dict):
        return [key.value for key in node.keys
                if isinstance(key, ast.Constant)
                and isinstance(key.value, str)]
    if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "dict":
        return [keyword.arg for keyword in node.keywords if keyword.arg]
    return []


def _callee_names(call: ast.Call, class_stack: List[ast.ClassDef]
                  ) -> List[str]:
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "cls" and class_stack:
            return [class_stack[-1].name]
        return [func.id]
    if isinstance(func, ast.Attribute):
        owner = func.value
        if func.attr == "__init__" and isinstance(owner, ast.Call) \
                and getattr(owner.func, "id", "") == "super" \
                and class_stack:
            return [getattr(base, "id", getattr(base, "attr", ""))
                    for base in class_stack[-1].bases]
        return [func.attr]
    return []


def find_setters(tree: ast.AST, site_path: str, group: int,
                 by_callee: Dict[str, List[Option]],
                 by_name: Dict[str, List[Option]],
                 defined_in: str) -> Iterator[Tuple[Key, Setter]]:
    """Every (option, setter) pair found in one caller module."""
    class_stack: List[ast.ClassDef] = []
    #: Per open def: its defaulted parameter names -> their keys (none
    #: outside the package, whose parameters are not options).
    def_stack: List[Dict[str, Key]] = []

    def forwarded(value: ast.AST) -> Optional[Key]:
        if def_stack and isinstance(value, ast.Name):
            return def_stack[-1].get(value.id)
        return None

    def site(node: ast.AST) -> str:
        return f"{site_path}:{node.lineno}"

    def visit_call(node: ast.Call) -> Iterator[Tuple[Key, Setter]]:
        names = _callee_names(node, class_stack)
        candidates = [option for name in names
                      for option in by_callee.get(name, ())]
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            for option in candidates:
                if option.key[2] == keyword.arg:
                    yield option.key, Setter(site(node), group, "keyword",
                                             forwarded(keyword.value))
            if keyword.arg.lower().endswith("kwargs"):
                yield from key_setters(keyword.value, node)
        positional = []
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                break
            positional.append(arg)
        for option in candidates:
            if option.position is not None \
                    and option.position < len(positional):
                yield option.key, Setter(
                    site(node), group, "positional",
                    forwarded(positional[option.position]))
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "setdefault" \
                and _kwargs_name(func.value) and node.args \
                and isinstance(node.args[0], ast.Constant):
            for option in by_name.get(node.args[0].value, ()):
                yield option.key, Setter(site(node), group, "kwargs key")

    def key_setters(value: ast.AST, node: ast.AST
                    ) -> Iterator[Tuple[Key, Setter]]:
        for key in _dict_keys(value):
            for option in by_name.get(key, ()):
                yield option.key, Setter(site(node), group, "kwargs key")

    def visit_assign(node: ast.AST) -> Iterator[Tuple[Key, Setter]]:
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute):
                owner = target.value
                if isinstance(owner, ast.Name) and owner.id in ("self",
                                                                "cls"):
                    continue
                for option in by_name.get(target.attr, ()):
                    yield option.key, Setter(site(node), group, "attribute")
            elif isinstance(target, ast.Subscript) \
                    and _kwargs_name(target.value) \
                    and isinstance(target.slice, ast.Constant):
                for option in by_name.get(target.slice.value, ()):
                    yield option.key, Setter(site(node), group,
                                             "kwargs key")
            elif _kwargs_name(target) and node.value is not None:
                yield from key_setters(node.value, node)

    def visit(node: ast.AST, scope: str) -> Iterator[Tuple[Key, Setter]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualified = scope + child.name
                args = child.args
                positional = list(args.posonlyargs) + list(args.args)
                defaulted = [arg.arg for arg in
                             positional[len(positional)
                                        - len(args.defaults):]]
                defaulted += [arg.arg for arg, default in
                              zip(args.kwonlyargs, args.kw_defaults)
                              if default is not None]
                def_stack.append({
                    name: (defined_in, qualified, name)
                    for name in defaulted} if defined_in else {})
                yield from visit(child, qualified + ".")
                def_stack.pop()
                continue
            if isinstance(child, ast.ClassDef):
                class_stack.append(child)
                yield from visit(child, scope + child.name + ".")
                class_stack.pop()
                continue
            if isinstance(child, ast.Call):
                yield from visit_call(child)
            elif isinstance(child, (ast.Assign, ast.AnnAssign,
                                    ast.AugAssign)):
                yield from visit_assign(child)
            yield from visit(child, scope)

    yield from visit(tree, "")


def _python_files(root: str, directory: str) -> Iterator[str]:
    for base, dirs, files in os.walk(os.path.join(root, directory)):
        dirs.sort()
        for filename in sorted(files):
            if filename.endswith(".py"):
                yield os.path.join(base, filename)


def _parse(path: str) -> ast.AST:
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), path)


def audit(root: str, package: str) -> Tuple[List[Option],
                                             Dict[Key, List[Setter]],
                                             Dict[Key, int]]:
    """(options, setters per option, group per option)."""
    package_dir = os.path.join(root, package)
    base = os.path.dirname(package_dir)
    options: List[Option] = []
    for path in _python_files(root, package):
        options.extend(collect_options(_parse(path),
                                       os.path.relpath(path, base)))
    by_callee: Dict[str, List[Option]] = {}
    by_name: Dict[str, List[Option]] = {}
    for option in options:
        by_callee.setdefault(option.callee, []).append(option)
        by_name.setdefault(option.key[2], []).append(option)
    setters: Dict[Key, List[Setter]] = {o.key: [] for o in options}
    for directory, group in GROUP_DIRS:
        for path in _python_files(root, directory):
            relative = os.path.relpath(path, root)
            in_package = os.path.abspath(path).startswith(
                os.path.abspath(package_dir) + os.sep)
            defined_in = os.path.relpath(path, base) if in_package else ""
            for key, setter in find_setters(_parse(path), relative, group,
                                            by_callee, by_name, defined_in):
                if key in setters:
                    setters[key].append(setter)
    # A forwarded value is set where the parameter it forwards is set:
    # propagate groups until nothing changes.
    groups: Dict[Key, int] = {key: NOBODY for key in setters}
    changed = True
    while changed:
        changed = False
        for key, found in setters.items():
            best = max((s.group if s.forwarded is None
                        else min(s.group, groups.get(s.forwarded, s.group))
                        for s in found), default=NOBODY)
            if best > groups[key]:
                groups[key] = best
                changed = True
    return options, setters, groups


def report(options: List[Option], setters: Dict[Key, List[Setter]],
           groups: Dict[Key, int], package: str) -> List[str]:
    counts = {group: 0 for group in GROUP_NAMES}
    for option in options:
        counts[groups[option.key]] += 1
    lines = [f"{len(options)} settable values in {package}: "
             f"{counts[DRIVERS]} set by drivers, "
             f"{counts[TESTS]} by tests or examples only, "
             f"{counts[NOBODY]} by nobody",
             "counting: one value per defaulted def parameter or dataclass "
             "field; setters are keywords, kwargs-dict keys, positional "
             "arguments and attribute assignments, matched by name"]
    for group in (NOBODY, TESTS):
        lines.append(f"set by {GROUP_NAMES[group]}:")
        for option in sorted(options, key=lambda o: (o.key[0], o.line)):
            if groups[option.key] != group:
                continue
            path, qualified, name = option.key
            line = f"  {path}:{option.line} {qualified}({name})"
            found = setters[option.key]
            if found:
                first = found[0]
                line += f" <- {first.kind} at {first.site}"
                if len(found) > 1:
                    line += f" (+{len(found) - 1} more)"
            lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=ROOT,
                        help="repository root (default: this repository)")
    parser.add_argument("--package", default=os.path.join("src", "repro"),
                        help="package directory, relative to the root")
    args = parser.parse_args(argv)
    options, setters, groups = audit(args.root, args.package)
    print("\n".join(report(options, setters, groups, args.package)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
