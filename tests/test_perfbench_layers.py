"""Every layer the benchmark traces names an attribute of the package, so renaming or deleting one
fails here and not only in the benchmark's traced mode."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


@pytest.mark.parametrize("modname, attr", [(modname, attr) for modname, attr, _, _ in _layers()])
def test_traced_layer_resolves(modname, attr):
    mod = importlib.import_module(f"onesided.{modname}")
    if "." in attr:  # a method, which the tracer replaces on the class that defines it
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(meth)), f"onesided.{modname}.{attr}"
    else:
        assert callable(getattr(mod, attr, None)), f"onesided.{modname}.{attr}"
