"""Every name a module exports resolves.

A deletion that leaves its name in an __all__ (or in the package's
re-exports) breaks `from stickysim import *` only at a user's import; this
test catches it here.  Public submodules are discovered, not listed, so a new
module is covered as soon as it exists.
"""

import importlib
import pkgutil

import pytest

import stickysim

PUBLIC_MODULES = ["stickysim"] + [
    f"stickysim.{info.name}"
    for info in pkgutil.iter_modules(stickysim.__path__)
    if not info.name.startswith("_")
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing objects: {missing}"
