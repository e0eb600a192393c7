import importlib
import pkgutil

import pytest

import cremona

MODULES = sorted(m.name for m in pkgutil.iter_modules(cremona.__path__))


def test_modules_found():
    assert "field_tower" in MODULES and "cli_app" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_is_sorted(name):
    """Every name a module exports exists there, so a deletion cannot
    leave a stale export, and the list is sorted without repeats."""
    module = importlib.import_module(f"cremona.{name}")
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
    assert exported == sorted(set(exported))
