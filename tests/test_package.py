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

#: Exports that no girylab module but their own names, and why each stays.
UNREFERENCED_EXPORTS = {
    "characteristic": "the indicator of a measurable set, whose integral "
                      "is the set's measure",
    "integrate_approx_bounds": "the certified integrator on [0,1], the one "
                               "approximation; no command reaches it",
    "CodensityElement": "the natural family that codensity.lift returns",
    "SequenceAffineMap": "the affine maps of sequences that naturality is "
                         "checked against",
    "Report": "the result of run_suite",
    "trajectory": "the int chain, every state held, that the Markov tests "
                  "compare n_step and decimal_states against",
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


def _names_used(path: Path) -> set:
    """Every name a module reads or imports, and every attribute it reads
    off a girylab module's name: ``monad.n_step`` counts, but
    ``space.atoms`` does not count as a use of ``spaces.atoms``."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in EXPORTS):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_export_is_used_elsewhere_or_pinned():
    """An export that no other girylab module names must be pinned above
    with its reason, so an uncalled name cannot come back unnoticed."""
    package = Path(girylab.__file__).parent
    used = {path.stem: _names_used(path) for path in package.glob("*.py")
            if path.stem != "__init__"}
    unreferenced = {name for module, names in EXPORTS.items() for name in names
                    if not any(name in seen for other, seen in used.items()
                               if other != module)}
    assert unreferenced <= set(UNREFERENCED_EXPORTS)


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
