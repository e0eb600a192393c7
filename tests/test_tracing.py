"""The benchmark's tracer (`perfbench/tracing.py`, used by `run.py --trace
1`) against the package as it is: `Tracer.install()` wraps every name in
`TIMED` and `COUNTED`, so deleting one of them from `src/` breaks traced
runs, and this test fails first.  `uninstall()` must put every original
back."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import cremona
from cremona import field_tower


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every cremona module, and of every class defined
    in one, keyed by owner and name."""
    out = {}
    for info in pkgutil.iter_modules(cremona.__path__):
        mod = importlib.import_module(f"cremona.{info.name}")
        for attr, value in vars(mod).items():
            out[mod.__name__, attr] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for name, member in vars(value).items():
                    out[f"{mod.__name__}.{attr}", name] = member
    return out


def test_tracer_wraps_every_listed_name_and_uninstall_restores():
    tracing = _tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for table in (tracing.TIMED, tracing.COUNTED):
            for layer, names in table.items():
                home = importlib.import_module(f"cremona.{layer}")
                for name in names:
                    owner, _, attr = name.rpartition(".")
                    value = vars(getattr(home, owner))[attr] if owner else getattr(home, attr)
                    assert hasattr(value, "__wrapped__"), f"{layer}.{name}"
        ctx = field_tower.get_ctx(2, 8)  # the module's binding, which install wraps
        assert ctx.mul(ctx.inv(3), 3) == 1
        assert tracer.counts["FieldCtx.mul"][0] >= 1
        assert tracer.counts["FieldCtx.inv"][0] >= 1
        assert tracer.calls["get_ctx", None] == 1
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
