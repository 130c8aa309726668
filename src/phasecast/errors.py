"""Shared error types that the CLI maps to distinct exit codes, and the one
check every config section goes through."""

import dataclasses
import types
import typing


class ConfigError(ValueError):
    """Invalid or inconsistent experiment/model configuration."""


class DataError(ValueError):
    """Problems reading or validating an input dataset."""


_WORDS = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
          dict: "an object", type(None): "null"}


def _matches(value, tp) -> bool:
    """Whether a decoded JSON ``value`` has the type of annotation ``tp``."""
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        return any(_matches(value, arg) for arg in args)
    if isinstance(value, bool):  # bool subclasses int: true is no number
        return origin is bool
    if origin in (list, tuple):  # list[X] or tuple[X, Y]; JSON gives a list for both
        if not isinstance(value, (list, tuple)):
            return False
        kinds = args if origin is tuple else args * len(value)
        return len(kinds) == len(value) and all(map(_matches, value, kinds))
    return isinstance(value, (int, float) if origin is float else origin)


def _describe(tp) -> str:
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        return " or ".join(map(_describe, args))
    if origin in (list, tuple):
        count = f"{len(args)} " if origin is tuple else ""
        return f"a list of {count}{_describe(args[0]).split(' ', 1)[1]}s"
    return _WORDS[origin]


def check_section(cls, section, where: str, filled=()) -> None:
    """Check a config section's keys against the fields of dataclass ``cls``
    that the run does not fill in itself, and each value's JSON type against
    its field's annotation. A field without a default must be set."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    hints = typing.get_type_hints(cls)
    settable = [f for f in dataclasses.fields(cls) if f.name not in filled]
    unknown = sorted(set(section) - {f.name for f in settable})
    if unknown:
        raise ConfigError(f"unknown config key(s) {unknown} in {where}")
    for f in settable:
        if f.name not in section:
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"{where} needs '{f.name}'")
        elif not _matches(section[f.name], hints[f.name]):
            raise ConfigError(f"'{f.name}' in {where} must be {_describe(hints[f.name])}, "
                              f"got {section[f.name]!r}")
