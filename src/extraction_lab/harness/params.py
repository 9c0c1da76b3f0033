"""One rule set for every JSON input: suite configs, check entries and params,
side-information params and ``entropy`` scenarios.

:func:`resolved` refuses a key without a default (naming the accepted
keys), a missing required key, a value of another type than its default
(no coercion: ``2.0``, ``"5"`` and ``true`` are no integers), an empty list,
a value outside its choice and an integer below 1 that has no choice.  A
rule that ties two values together stays with the code that owns the input.
"""

from __future__ import annotations

NATURALS = range(1 << 63)   # the integers >= 0 a seed (or a flat source's k) may take


def resolved(where: str, given, defaults: dict, choices: dict | None = None,
             required=()) -> dict:
    """``defaults`` overridden by ``given``; ValueError naming ``where`` for a refused input.

    A tuple default takes a list, each entry checked against its first
    entry; a ``required`` key's default only fixes its type.  ``choices``
    maps a key to (noun, values), the values a tuple of names or a range.
    """
    if not isinstance(given, dict):
        raise ValueError(f"{where} must be an object, got {given!r}")
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}; "
                         f"accepted: {', '.join(sorted(defaults)) or 'none'}")
    missing = [key for key in required if key not in given]
    if missing:
        raise ValueError(f"{where}: missing keys {missing}")
    out = dict(defaults)
    for key, value in given.items():
        default, choice = defaults[key], (choices or {}).get(key)
        if not isinstance(default, tuple):
            out[key] = _checked(where, key, value, default, choice)
        elif isinstance(value, (list, tuple)) and value:
            out[key] = tuple(_checked(where, key, item, default[0], choice) for item in value)
        else:
            raise ValueError(f"{where}: {key!r} list: expected a non-empty list, got {value!r}")
    return out


def _checked(where: str, key: str, value, default, choice):
    if type(value) is not type(default):
        expected = "an object" if isinstance(default, dict) else f"of type {type(default).__name__}"
        raise ValueError(f"{where}: {key!r} must be {expected}, got {value!r}")
    if choice is None:
        if type(value) is int and value < 1:
            raise ValueError(f"{where}: {key!r} must be positive, got {value}")
    elif value not in choice[1]:
        noun, values = choice
        if isinstance(values, range):
            raise ValueError(f"{where}: {noun} must be in {values.start}..{values.stop - 1}, "
                             f"got {value!r}")
        raise ValueError(f"{where}: unknown {noun} {value!r}; known: {', '.join(values)}")
    return value
