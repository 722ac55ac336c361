"""The package surface: lazily registered submodules and the names the
package re-exports from them."""

import ast
import importlib
import sys
import types
from pathlib import Path

import pytest

import girylab

EXPORTS = girylab._EXPORTS

#: Public functions, classes and methods that nothing in ``src/`` or
#: ``perfbench/`` names outside their own definition, and why each stays.
UNREFERENCED = {
    "MeasMap.preimage": "the preimage of a measurable set, the oracle "
                        "test_measures checks pushforward against",
    "Measure.of": "the measure of a measurable set, the oracle for "
                  "integrals of indicators",
    "IntervalMeasure.uniform": "the uniform measure on [a, b], which the "
                               "acceptance tests integrate against",
    "clamped_sum_functional": "an adversary that functional documents "
                              "reach by name, through "
                              "jsonio._NAMED_FUNCTIONALS",
}


def test_every_submodule_but_cli_is_registered():
    for module in EXPORTS:
        assert sys.modules[f"girylab.{module}"] is getattr(girylab, module)
        assert isinstance(getattr(girylab, module), types.ModuleType)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_export_is_its_submodules_object(module):
    defining = importlib.import_module(f"girylab.{module}")
    for name in EXPORTS[module]:
        assert getattr(girylab, name) is getattr(defining, name)


def test_star_import_and_dir_list_the_exports():
    names = {name for names in EXPORTS.values() for name in names}
    star = {}
    exec("from girylab import *", star)
    assert set(star) - {"__builtins__"} == names
    assert names <= set(dir(girylab))
    assert set(EXPORTS) <= set(dir(girylab))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
        girylab.nonsense
    with pytest.raises(ImportError):
        exec("from girylab import nonsense", {})


PACKAGE = Path(girylab.__file__).parent
SOURCES = [*PACKAGE.glob("*.py"),
           *(Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")]


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public module-level function and
    class, and of each public method of such a class."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item


def _names_read(tree: ast.Module):
    """(bare name, line) of each name a module reads or imports and each
    attribute it reads, whatever the attribute is read off."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)


def test_every_public_name_is_used_or_pinned():
    """Each public function, class and method of ``girylab`` must be named
    in ``src/`` or ``perfbench/`` outside its own definition, or be pinned
    in ``UNREFERENCED`` with its reason, so an uncalled name cannot come
    back unnoticed.  The package's ``_EXPORTS`` strings and the tests do
    not count.  Names are matched bare, so a method counts as named when
    another name shares its bare name: ``IntervalMeasure.dirac`` is named
    by every call of ``monad.dirac``."""
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    reads = {path: list(_names_read(tree)) for path, tree in trees.items()}
    unreferenced = set()
    for path in PACKAGE.glob("*.py"):
        for qualname, node in _public_definitions(trees[path]):
            bare = qualname.rsplit(".", 1)[-1]
            if not any(name == bare and not (
                    other == path and node.lineno <= line <= node.end_lineno)
                    for other, seen in reads.items() for name, line in seen):
                unreferenced.add(qualname)
    assert unreferenced == set(UNREFERENCED)


def _unread_imports(path: Path) -> set:
    """The names a module binds by an import and never reads."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


@pytest.mark.parametrize("path", sorted(
    Path(girylab.__file__).parent.glob("*.py")), ids=lambda p: p.stem)
def test_every_import_is_read(path):
    assert not _unread_imports(path)
