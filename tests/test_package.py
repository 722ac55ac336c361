"""The package surface: lazily registered submodules and the names the
package re-exports from them."""

import importlib
import sys
import types

import pytest

import girylab

EXPORTS = girylab._EXPORTS


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
