"""The valid values of each setting, declared once on the dataclass field that holds it.

A numeric field names its range by one of the RANGES words and a string
field lists its choices; `check` reads these and the field types for the
library configs and the command line alike.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

# The words that state a range, and its test.
RANGES = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "in (0, 1)": lambda v: 0.0 < v < 1.0,
    "in [0, 1]": lambda v: 0.0 <= v <= 1.0,
    "finite and > 0": lambda v: 0.0 < v < math.inf,
    "finite and >= 0": lambda v: 0.0 <= v < math.inf,
}

# The values each annotated field type takes, and the words that state them.
_TYPES = {
    "int": (lambda v: type(v) is not bool and isinstance(v, (int, np.integer)), "an integer"),
    "float": (lambda v: type(v) is not bool and isinstance(v, (int, float, np.integer, np.floating)), "a number"),
    "bool": (lambda v: type(v) is bool, "true or false"),
}


def setting(default=dataclasses.MISSING, *, within=None, choices=None):
    """A dataclass field whose values `check` keeps in the range RANGES[within], or among `choices`."""
    return dataclasses.field(default=default, metadata={"within": within, "choices": choices})


def like(owner, name, **default):
    """A field that feeds `owner`'s field `name`, with its range or choices, and its default unless `default` gives one."""
    f = owner.__dataclass_fields__[name]
    default = default or {"default": f.default, "default_factory": f.default_factory}
    return dataclasses.field(metadata={**f.metadata, "feeds": (owner, name)}, **default)


@functools.cache
def _rules(cls):
    """(field name, test, words) for each condition the fields of `cls` put on their values, in field order."""
    rules = []
    for f in dataclasses.fields(cls):
        within, choices = f.metadata.get("within"), f.metadata.get("choices")
        typed, words = _TYPES.get(getattr(f.type, "__name__", f.type), (None, None))
        if choices:
            rules.append((f.name, choices.__contains__, " or ".join(map(repr, choices))))
        elif typed:
            rules.append((f.name, typed, f"{words} {within}" if within else words))
        if within:
            rules.append((f.name, RANGES[within], within))
    return tuple(rules)


def check(cls, values, error, label=str):
    """Raise `error` for the first value in the mapping `values` that its field of `cls` does not accept.

    The message reads "<label(name)> must be <words>, got <value>". Names
    that `values` lacks, and fields that declare nothing, are not checked.
    """
    for name, test, words in _rules(cls):
        if name in values and not test(values[name]):
            raise error(f"{label(name)} must be {words}, got {values[name]!r}")
