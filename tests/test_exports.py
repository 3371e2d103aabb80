"""The package's export surface: no advertised name is stale."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import poissonize


def test_all_names_resolve_and_package_reexports_are_declared():
    """Every name in a submodule's ``__all__`` exists and, for a function or
    class, is defined in that module rather than imported into it; every
    name the package re-exports is in its home module's ``__all__``.  So a
    deletion that leaves an export behind fails here, and so does a second
    home for one name."""
    modules = {
        info.name: importlib.import_module(f"poissonize.{info.name}")
        for info in pkgutil.iter_modules(poissonize.__path__)
        if info.name != "__main__"  # runs the command line on import
    }
    for module in modules.values():
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing {missing}"
        foreign = [
            name for name in module.__all__
            if getattr(getattr(module, name), "__module__", module.__name__)
            != module.__name__
        ]
        assert not foreign, f"{module.__name__}.__all__ names imported {foreign}"

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


def _names_imported_from_package(source):
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "poissonize" and not node.level
        for alias in node.names
    }


def test_package_exports_only_what_the_quick_start_and_acceptance_use():
    """The package level re-exports exactly the names that the README quick
    start and the acceptance battery import from ``poissonize``; every
    other name is imported from its module."""
    root = pathlib.Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    quick_start = readme.split("## Quick start", 1)[1]
    quick_start = quick_start.split("```python\n", 1)[1].split("```", 1)[0]
    used = _names_imported_from_package(quick_start)
    used |= _names_imported_from_package((root / "tests" / "test_acceptance.py").read_text())

    tree = ast.parse(inspect.getsource(poissonize))
    reexports = {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert {"GmmParams", "learn_means", "sample_approx_ica_batch"} <= used  # both parsed
    assert reexports == used, (
        f"unused: {sorted(reexports - used)}, missing: {sorted(used - reexports)}"
    )
