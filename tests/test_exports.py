import importlib
import pkgutil

import pytest

import treeskew

SUBMODULES = [
    f"treeskew.{info.name}"
    for info in pkgutil.iter_modules(treeskew.__path__)
    if info.name != "__main__"  # importing it runs the CLI
]


@pytest.mark.parametrize("name", ["treeskew", *SUBMODULES])
def test_every_export_resolves_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_package_exports_are_the_submodule_objects():
    for attr in treeskew.__all__:
        if attr == "__version__":
            continue
        value = getattr(treeskew, attr)
        home = importlib.import_module(value.__module__)
        assert getattr(home, attr) is value
        assert attr in getattr(home, "__all__", [attr]), f"{home.__name__} does not export {attr}"
