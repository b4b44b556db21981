"""The benchmark's span tracer finds every function it hooks.

A hook whose function was removed or renamed is skipped, and its per-layer
metric drops out of a traced benchmark result; this catches that locally.
"""

import importlib
import sys
from pathlib import Path

import labelsplit.cli  # noqa: F401  (imports every module the hooks name)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402


def _bindings() -> dict[tuple[str, str], object]:
    """Every place a hooked function is looked up: the defining class's
    method, or each ``labelsplit`` module's global of that name."""
    out = {}
    for hook in spans.HOOKS:
        owner_name, _, attr = hook.attribute.rpartition(".")
        if owner_name:
            owner = getattr(importlib.import_module(hook.module), owner_name)
            out[(hook.module + "." + owner_name, attr)] = owner.__dict__.get(attr)
        else:
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "labelsplit" and hasattr(module, attr):
                    out[(name, attr)] = getattr(module, attr)
    return out


def test_every_benchmark_hook_resolves_and_uninstalls():
    before = _bindings()
    tracer = spans.Tracer()
    try:
        assert tracer.install() == []
        assert tracer.installed == {hook.span for hook in spans.HOOKS}
        during = _bindings()
        for hook in spans.HOOKS:
            owner_name, _, attr = hook.attribute.rpartition(".")
            key = (hook.module + "." + owner_name if owner_name else hook.module, attr)
            assert during[key] is not before[key], hook.span
        assert spans.LabelCallCounter.for_package() is not None
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, key
