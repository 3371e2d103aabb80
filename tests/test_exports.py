"""The package's export surface: no advertised name is stale."""

import ast
import importlib
import inspect
import pkgutil

import poissonize


def test_all_names_resolve_and_package_reexports_are_declared():
    """Every name in a submodule's ``__all__`` exists, and every name the
    package re-exports is in its home module's ``__all__``, so a deletion
    that leaves an export behind fails here."""
    modules = {
        info.name: importlib.import_module(f"poissonize.{info.name}")
        for info in pkgutil.iter_modules(poissonize.__path__)
        if info.name != "__main__"  # runs the command line on import
    }
    for module in modules.values():
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing {missing}"

    tree = ast.parse(inspect.getsource(poissonize))
    reexports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    ]
    assert reexports
    undeclared = [
        f"{module}.{name}" for module, name in reexports
        if name not in modules[module].__all__
    ]
    assert not undeclared, f"re-exported but not in __all__: {undeclared}"
