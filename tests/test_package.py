"""The package surface: lazily registered submodules, and the public
names and imports of ``src/``."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import girylab

SUBMODULES = girylab._SUBMODULES

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
    stems = {path.stem for path in Path(girylab.__file__).parent.glob("*.py")}
    assert set(SUBMODULES) == stems - {"__init__", "cli"}
    for module in SUBMODULES:
        assert sys.modules[f"girylab.{module}"] is getattr(girylab, module)
        assert isinstance(getattr(girylab, module), types.ModuleType)


def test_the_package_binds_no_reexports():
    public = {name: value for name, value in vars(girylab).items()
              if not name.startswith("_")}
    assert set(SUBMODULES) <= set(public)
    assert all(isinstance(value, types.ModuleType)
               for value in public.values())


#: Run with a submodule's name: prints whether it has run after ``import
#: girylab``, and again after one of its names is read.  ``type()`` does
#: not trigger a lazy load.
FIRST_READ = ("import sys, types; import girylab; name = sys.argv[1]; "
              "module = sys.modules['girylab.' + name]; "
              "print(type(module) is types.ModuleType); "
              "getattr(module, '__file__'); "
              "print(type(module) is types.ModuleType)")


@pytest.mark.parametrize("module", SUBMODULES)
def test_each_submodule_runs_on_first_read(module):
    env = dict(os.environ, PYTHONPATH=str(Path(girylab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", FIRST_READ, module], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


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
    back unnoticed.  The tests do not count.  Names are matched bare, so
    a method counts as named when another name shares its bare name:
    ``IntervalMeasure.dirac`` is named by every call of ``monad.dirac``."""
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


def test_only_verdicts_writes_witnesses():
    """No module of ``src/`` but ``verdicts`` imports ``describe`` from
    it or reads ``verdicts.describe``, so a witness, a raised one too,
    stays raw values until a Verdict writes it."""
    writers = {
        path.stem for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and node.module in ("verdicts", "girylab.verdicts")
        and any(alias.name == "describe" for alias in node.names)
        or isinstance(node, ast.Attribute) and node.attr == "describe"
        and isinstance(node.value, ast.Name) and node.value.id == "verdicts"}
    assert writers == set()
