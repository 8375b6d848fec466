"""Scenario-document vocabulary: each field parser takes ``(value, path)``
and returns the parsed value; :func:`obj` walks a table ``{key: (parser,
default)}``.  ``cli`` holds the document-level tables, and each family
module its ``PARAMETERS``."""

import math
from dataclasses import fields as dataclass_fields
from functools import partial

import numpy as np

from .errors import ValidationError


def check_keys(value, path, allowed, required):
    if not isinstance(value, dict):
        raise ValidationError(f"{path} must be an object")
    unknown = sorted(set(value) - set(allowed))
    if unknown:
        listed = ", ".join(f'"{k}"' for k in unknown)
        raise ValidationError(f"unknown key {listed} in {path}")
    missing = sorted(set(required) - set(value))
    if missing:
        raise ValidationError(f'missing required key "{missing[0]}" in {path}')


def number(value, path, *, minimum=None, exclusive_minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path} must be a number")
    v = float(value)
    if not math.isfinite(v):
        raise ValidationError(f"{path} must be finite")
    if minimum is not None and v < minimum:
        raise ValidationError(f"{path} must be >= {minimum}")
    if exclusive_minimum is not None and v <= exclusive_minimum:
        raise ValidationError(f"{path} must be > {exclusive_minimum}")
    if maximum is not None and v > maximum:
        raise ValidationError(f"{path} must be <= {maximum}")
    return v


def integer(value, path, *, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path} must be an integer")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{path} must be >= {minimum}")
    return value


def string(value, path, *, choices=None):
    if not isinstance(value, str):
        raise ValidationError(f"{path} must be a string")
    if choices is not None and value not in choices:
        allowed = ", ".join(f'"{c}"' for c in choices)
        raise ValidationError(f"{path} must be one of {allowed}")
    return value


def complex_entry(value, path):
    if (
        not isinstance(value, list)
        or len(value) != 2
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in value)
    ):
        raise ValidationError(f"{path} must be a [re, im] pair of numbers")
    return complex(float(value[0]), float(value[1]))


def complex_matrix(value, path):
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{path} must be a non-empty matrix of [re, im] pairs")
    n = len(value)
    m = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise ValidationError(f"{path}[{i}] must be a row of {n} [re, im] pairs")
        for j, entry in enumerate(row):
            m[i, j] = complex_entry(entry, f"{path}[{i}][{j}]")
    return m


# Default of a key that must be present.  A default of None leaves an absent
# key None; a callable default gets the fields parsed before it.
REQUIRED = object()


def obj(fields, name=None):
    """Parser for an object declared as {key: (parser, default)}; keys are
    checked and parsed in table order.  ``name`` labels the parameters block,
    whose fields are reported by bare key."""
    required = {key for key, (_, default) in fields.items() if default is REQUIRED}

    def parse(value, path):
        check_keys(value, name or path, fields, required)
        out = dict.fromkeys(fields)
        for key, (parser, default) in fields.items():
            if key in value:
                out[key] = parser(value[key], key if name else f"{path}.{key}")
            elif default is not None:
                given = default(out) if callable(default) else default
                out[key] = parser(given, key if name else f"{path}.{key}")
        return out

    return parse


def spec(cls):
    """Parser for a numerics block with the fields and defaults of ``cls``;
    the dataclass's own checks are reported under the block's path."""
    fields = {f.name: (integer if f.type in (int, "int") else number, f.default)
              for f in dataclass_fields(cls)}
    parse_fields = obj(fields)

    def parse(value, path):
        kwargs = parse_fields(value, path)
        try:
            return cls(**kwargs)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from exc

    return parse


positive = partial(number, exclusive_minimum=0.0)
