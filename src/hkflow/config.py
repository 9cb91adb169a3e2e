"""The one reader of JSON objects: CLI configs, measures, entropies and
grid domains.  A field table maps each field name to (reader, default),
with default REQUIRED for a field that must be present.  A reader maps the
JSON value at a dotted path to its Python value.  Unknown, missing and
malformed fields raise ConfigError naming their path."""

import sys


class ConfigError(ValueError):
    pass


REQUIRED = object()  # the default of a field that must be present


def read_fields(obj, path: str, fields: dict) -> dict:
    """Field name -> value of the JSON object obj at path, in table order."""
    at = lambda name: f"{path}.{name}" if path else name
    _expect(isinstance(obj, dict), path or "config", "a JSON object", obj)
    unknown = [at(k) for k in obj if k not in fields]
    if unknown:
        raise ConfigError(f"unknown config fields {unknown}")
    missing = [at(k) for k, (_, default) in fields.items()
               if default is REQUIRED and k not in obj]
    if missing:
        raise ConfigError(f"missing config fields {missing}")
    return {k: read(obj[k], at(k)) if k in obj else default
            for k, (read, default) in fields.items()}


def read_tagged(obj, path: str, tag: str, tables: dict) -> tuple:
    """(tag, other field values) of an object whose tag picks its table."""
    kind = one_of(tables)(obj.get(tag) if isinstance(obj, dict) else None,
                          f"{path}.{tag}")
    values = read_fields(obj, path, {tag: (raw, REQUIRED), **tables[kind]})
    return values.pop(tag), values


def _expect(ok: bool, path: str, what: str, value):
    if not ok:
        raise ConfigError(f"{path}: expected {what}, got {value!r}")
    return value


def raw(value, path: str):
    """The value as it stands, for an object its own reader reads later."""
    return value


def one_of(names):
    """Reader of a string among names; a list or object is no name."""
    def read(value, path: str) -> str:
        ok = isinstance(value, str) and value in names
        return _expect(ok, path, f"one of {sorted(names)}", value)
    return read


def number(value, path: str) -> float:
    # false for nan and inf, and for an int too large to be a float
    ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    return float(_expect(ok, path, "a finite number", value))


def positive(value, path: str) -> float:
    x = number(value, path)
    _expect(x > 0, path, "a positive number", value)
    return x


def integer(low: int):
    """Reader of an integer of at least low."""
    def read(value, path: str) -> int:
        ok = (type(value) in (int, float) and float(value).is_integer()
              and value >= low)
        return int(_expect(ok, path, f"an integer >= {low}", value))
    return read


def listed(read, min_len: int = 0):
    """Reader of a JSON list of at least min_len entries, each read by read
    at path[i]."""
    def read_list(value, path: str) -> list:
        ok = isinstance(value, list) and len(value) >= min_len
        _expect(ok, path, f"a list of at least {min_len} entries", value)
        return [read(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return read_list


def nested(fields: dict):
    """Reader of a JSON object with the field table fields."""
    return lambda value, path: read_fields(value, path, fields)
