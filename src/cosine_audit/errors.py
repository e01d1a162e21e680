"""Shared error types and the checker of each config section's keys.

The errors a plan entry may raise pickle with their constructors'
arguments, so that they reach `audit` from a worker process intact."""

import sys


class ZeroRowError(ValueError):
    """A row (user or item vector) has zero Euclidean norm."""

    def __init__(self, index: int, what: str = "row"):
        self.index = index
        self.what = what
        super().__init__(f"{what} {index} has zero norm")

    def __reduce__(self):
        return type(self), (self.index, self.what)


class ZeroVarianceError(ValueError):
    """A column is constant, so it cannot be standardized."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"column {column} has zero variance")


class ConfigError(ValueError):
    """Invalid configuration value; carries the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        self.message = message
        super().__init__(f"{key}: {message}")

    def __reduce__(self):
        return type(self), (self.key, self.message)


def _is_number(v) -> bool:
    # an integer beyond float64's range is refused here, not by float()
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    return isinstance(v, float) or abs(v) <= sys.float_info.max


# what each JSON type a config key may hold accepts: true and 8.0 are not
# integers, and a bool is not a number
JSON_TYPES = {
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": _is_number,
    "a list of numbers": lambda v: isinstance(v, list) and all(map(_is_number, v)),
    "a string": lambda v: isinstance(v, str),
    "true or false": lambda v: isinstance(v, bool),
    "a JSON object": lambda v: isinstance(v, dict),
    "a non-empty list": lambda v: isinstance(v, list) and len(v) > 0,
}


def check_section(raw, where: str, table: dict, required=()) -> dict:
    """raw, checked against a section's key table: it must be a JSON object
    holding the `required` keys, and every key must be in `table` and hold
    a value of the JSON type the table names for it.

    `where` is the section's path in the config file ("" at the top level);
    each ConfigError names the full path of the offending key.
    """
    if not isinstance(raw, dict):
        raise ConfigError(where or "config", "must be a JSON object")
    prefix = f"{where}." if where else ""
    for key, value in raw.items():
        if key not in table:
            raise ConfigError(prefix + key, "unknown key; expected "
                                            + ", ".join(table))
        if not JSON_TYPES[table[key]](value):
            raise ConfigError(prefix + key, f"must be {table[key]}, got {value!r}")
    for key in required:
        if key not in raw:
            raise ConfigError(prefix + key, "missing key")
    return raw
