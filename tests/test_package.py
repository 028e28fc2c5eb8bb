"""The package's public names."""
import importlib
import pkgutil

import relviews


def test_every_public_name_resolves():
    modules = [relviews] + [importlib.import_module(f"relviews.{info.name}")
                            for info in pkgutil.iter_modules(relviews.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert len(modules) > 10 and missing == []
