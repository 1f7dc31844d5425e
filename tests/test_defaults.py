"""Defaulted parameters of the public API: each one is a knob a caller can leave unset.

The count is capped so that a new default is a visible change to this file.
"""

import importlib
import inspect

MODULES = ("cube", "poly", "constructions", "certify", "lp", "learn", "harness", "cli")

#: Defaulted parameters of the public functions and classes (constructors) of MODULES.
DEFAULTED_CAP = 17


def defaulted_parameters() -> list[str]:
    found = []
    for name in MODULES:
        mod = importlib.import_module(f"onesided.{name}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            try:
                params = inspect.signature(obj).parameters.values()
            except (TypeError, ValueError):  # classes without an introspectable constructor
                continue
            found += [f"{name}.{attr}({p.name})" for p in params if p.default is not inspect.Parameter.empty]
    return found


def test_defaulted_parameters_do_not_grow():
    found = defaulted_parameters()
    assert len(found) <= DEFAULTED_CAP, (
        f"{len(found)} defaulted public parameters, cap {DEFAULTED_CAP}:\n" + "\n".join(found))
