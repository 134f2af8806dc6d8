"""Every exported name, every public method, property and dataclass field of
an exported class, and every defaulted parameter of an exported function,
class or public method, has a reader outside the unit tests: the library
itself, the scripts, the benchmark, or the acceptance gates.

A name only unit tests reach is surface to maintain with no caller; delete
it or give it one. ``tests/test_acceptance.py`` counts as a reader, because
its gates are the contract the library is held to: a field that only a gate
reads (``SigmaEstimate.mode``, say) is still part of what the library
promises.

References are read off the syntax tree. A method, property or field counts
when some code reads it as an attribute; any other name when it is read,
imported or read as an attribute; a defaulted parameter when some call of a
callable of that name passes it, by keyword or by position. A mention in a
docstring or comment does not count, and ``__init__.py`` is left out:
exporting a name is not using it. Matching is by name, so a member that
shares its name with some other attribute in use (say a ``Grid.data`` next
to a sparse matrix's ``data``) is not caught, nor is a parameter passed to
another callable of the same name.
"""

import ast
import dataclasses
import enum
import inspect
from functools import cached_property
from pathlib import Path

import jumpexit

ROOT = Path(__file__).resolve().parents[1]


def _references() -> tuple[set[str], set[str], set[tuple[str, object]]]:
    """Names read anywhere (bare, imported or as an attribute); the subset
    read as attributes, which is how methods and fields are reached; and
    the arguments passed, as ``(callee name, keyword)`` and ``(callee name,
    position)`` pairs."""
    files = [p for p in (ROOT / "src" / "jumpexit").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
              ROOT / "tests" / "test_acceptance.py"]
    names, attributes, passed = set(), set(), set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Call):
                func = node.func
                callee = getattr(func, "id", None) or getattr(func, "attr", None)
                passed.update((callee, kw.arg) for kw in node.keywords)
                passed.update((callee, i) for i in range(len(node.args)))
    return names | attributes, attributes, passed


def _defaulted(name: str, callable_, skip_first: bool) -> list[tuple[str, int | None]]:
    """``(parameter, position)`` of each public defaulted parameter of a
    callable called as ``name(...)``; ``skip_first`` drops ``self``."""
    params = list(inspect.signature(callable_).parameters.values())[int(skip_first):]
    return [(p.name, i if p.kind is p.POSITIONAL_OR_KEYWORD else None)
            for i, p in enumerate(params)
            if p.default is not p.empty and not p.name.startswith("_")]


def _public_surface() -> tuple[list[str], list[tuple[str, str, int | None]]]:
    """Exported names and public members (``Class.member``), and the
    defaulted parameters as ``(callee name, parameter, position)``."""
    surface, params = [], []
    for name in jumpexit.__all__:
        surface.append(name)
        obj = getattr(jumpexit, name)
        if not inspect.isclass(obj):
            if inspect.isfunction(obj):
                params += [(name, p, i) for p, i in _defaulted(name, obj, False)]
            continue
        if not issubclass(obj, (BaseException, enum.Enum)):
            params += [(name, p, i) for p, i in _defaulted(name, obj, False)]
        if dataclasses.is_dataclass(obj):
            surface += [f"{name}.{f.name}" for f in dataclasses.fields(obj)
                        if not f.name.startswith("_")]
        for attr, value in vars(obj).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value) or isinstance(
                    value, (property, cached_property, classmethod, staticmethod)):
                surface.append(f"{name}.{attr}")
            if inspect.isfunction(value):
                params += [(attr, p, i) for p, i in _defaulted(attr, value, True)]
            elif isinstance(value, (classmethod, staticmethod)):
                params += [(attr, p, i) for p, i in _defaulted(attr, getattr(obj, attr), False)]
    return surface, params


def test_public_surface_has_callers_outside_tests():
    names, attributes, passed = _references()
    surface, params = _public_surface()
    assert {"Intervals.from_pairs", "DiscreteOperator.exit_weights",
            "ExitMoments.values"} <= set(surface)
    assert ("simulate_path", "partition", 4) in params
    unused = [s for s in surface
              if s.rpartition(".")[2] not in (attributes if "." in s else names)]
    unused += [f"{callee}({p})" for callee, p, i in params
               if (callee, p) not in passed and (callee, i) not in passed]
    assert unused == []
