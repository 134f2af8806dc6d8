"""Every exported name, and every public method or property of an exported
class, is used by the library itself, the scripts or the benchmark.

A name only tests reach is surface to maintain with no caller; delete it or
give it one. References are read off the syntax tree: a method counts when
some code reads it as an attribute, any other name when it is read,
imported or read as an attribute. A mention in a docstring or comment does
not count, and ``__init__.py`` is left out: exporting a name is not using
it. Matching is by name, so a method that shares its name with some other
attribute in use (``Grid.indices`` and a sparse matrix's ``indices``) is
not caught.
"""

import ast
import inspect
from functools import cached_property
from pathlib import Path

import jumpexit

ROOT = Path(__file__).resolve().parents[1]


def _references() -> tuple[set[str], set[str]]:
    """Names read anywhere (bare, imported or as an attribute), and the
    subset read as attributes, which is how methods are reached."""
    files = [p for p in (ROOT / "src" / "jumpexit").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    names, attributes = set(), set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names | attributes, attributes


def _public_surface() -> list[str]:
    surface = []
    for name in jumpexit.__all__:
        surface.append(name)
        obj = getattr(jumpexit, name)
        if inspect.isclass(obj):
            for attr, value in vars(obj).items():
                if not attr.startswith("_") and (inspect.isfunction(value) or isinstance(
                        value, (property, cached_property, classmethod, staticmethod))):
                    surface.append(f"{name}.{attr}")
    return surface


def test_public_surface_has_callers_outside_tests():
    names, attributes = _references()
    surface = _public_surface()
    assert "Intervals.from_pairs" in surface and "DiscreteOperator.values" in surface
    unused = [s for s in surface
              if s.rpartition(".")[2] not in (attributes if "." in s else names)]
    assert unused == []
