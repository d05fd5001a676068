"""The benchmark's span tracer (perfbench/spans.py) against the package.

The tracer looks every target up by name, so renaming a traced function
or method breaks traced benchmark runs; this test makes such a rename
fail here too.  spans.py uses only the standard library.
"""

import importlib
import importlib.util
import pathlib
import sys

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every name bound in an rgpert module or in a class it defines."""
    out = {}
    for mname, module in list(sys.modules.items()):
        if module is None or not (mname == "rgpert"
                                  or mname.startswith("rgpert.")):
            continue
        for key, value in list(vars(module).items()):
            out[mname, key] = value
            if isinstance(value, type) and value.__module__ == mname:
                for attr, member in list(value.__dict__.items()):
                    out[mname, key, attr] = member
    return out


def _target(modname, path):
    module = sys.modules[modname]
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        return getattr(module, owner_name).__dict__[attr]
    return getattr(module, attr)


def test_tracer_wraps_every_target_and_uninstall_restores_all():
    spans = _load_spans()
    for _, modname, _, _ in spans.TARGETS:
        importlib.import_module(modname)
    originals = {name: _target(modname, path)
                 for name, modname, path, _ in spans.TARGETS}
    before = _bindings()
    tracer = spans.Tracer()
    try:
        tracer.install()
        for name, modname, path, _ in spans.TARGETS:
            assert _target(modname, path) is not originals[name], name
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
    for name, modname, path, _ in spans.TARGETS:
        assert _target(modname, path) is originals[name], name
