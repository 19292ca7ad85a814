"""Exception hierarchy shared across the package."""

import numbers


class ContcountError(Exception):
    """Base class for all package errors."""


class ParameterError(ContcountError, ValueError):
    """A constructor or operation argument violates its contract."""


class ValidationError(ContcountError, ValueError):
    """Runtime input (update vector, trace, instance file) is malformed."""


class StateError(ContcountError, RuntimeError):
    """An operation was applied to a state that cannot accept it."""


class SizeError(ContcountError):
    """An exact solver was asked for an instance beyond its brute-force budget."""


def lookup(table: dict, name, what: str, hint: str = ""):
    """``table[name]`` for a string ``name`` in ``table``; otherwise a
    ParameterError naming the unknown ``what`` and the known names, or ``hint``."""
    if isinstance(name, str) and name in table:
        return table[name]
    raise ParameterError(f"unknown {what} {name!r} ({hint or 'have: ' + ', '.join(sorted(table))})")


def is_integer(value) -> bool:
    """True for an int or a numpy integer, False for a bool and anything else."""
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)
