"""Shared exception types used across the package, and the JSON field reader that raises them."""


class DimensionError(ValueError):
    """An input's dimension does not match the declared dimension."""


class InputError(ValueError):
    """Malformed, empty, or otherwise unusable input data."""


class ParameterError(ValueError):
    """Construction or learner parameters lie outside the valid region."""


class ResourceLimitError(RuntimeError):
    """A size cap (expansion, cube enumeration, LP size) was exceeded."""


class SolverError(RuntimeError):
    """An LP solve ended without an optimum."""


class InfeasibleError(SolverError):
    """The LP has no feasible point (typically the weight cap is too small)."""


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer", float: "a number",
               type(None): "null"}
_REQUIRED = object()


def json_field(obj, key: str, kind, what: str, default=_REQUIRED):
    """``obj[key]`` of the parsed JSON object ``what``, or ``default`` when the field is absent and
    a default is given.  InputError names ``what`` and the field when ``obj`` is not an object,
    the field is missing, or its value is not an instance of ``kind`` (a type or a tuple); JSON's
    true and false are never an integer or a number, although Python's bool is an int."""
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object, got {_JSON_TYPES.get(type(obj), type(obj).__name__)}")
    if key not in obj:
        if default is _REQUIRED:
            raise InputError(f"{what} has no {key!r} field")
        return default
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        kinds = " or ".join(_JSON_TYPES[k] for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise InputError(f"{what} field {key!r} must be {kinds}, got {value!r}")
    return value


def json_int_list(obj, key: str, what: str) -> list:
    """The array ``obj[key]`` of :func:`json_field`, each entry an integer (not true or false)."""
    values = json_field(obj, key, list, what)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        raise InputError(f"{what} field {key!r} must hold integers, got {values!r}")
    return values
