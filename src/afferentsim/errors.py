"""Exception hierarchy shared across the package, and the kind check of
JSON input.

The CLI maps ValidationError to exit code 2 and NumericalError to exit
code 3; everything else is a bug.
"""

import json
import math


class AfferentSimError(Exception):
    """Base class for all package errors."""


class ValidationError(AfferentSimError):
    """Bad user input: config fields, protocol files, CLI arguments, and an
    output path the CLI cannot write."""


class NumericalError(AfferentSimError):
    """Numerical failure: singular systems, failed residual checks."""


class InvertedElementError(NumericalError):
    """A mesh element has a non-positive Jacobian at a quadrature point."""


# The kind of a JSON value: its name and the Python types json.load gives it.
NUMBER = ("a finite number", (int, float))
INTEGER = ("an integer", int)
STRING = ("a string", str)


def check_kind(value, kind, path: str):
    """`value` if it is of `kind` (a number as a float); else a
    ValidationError naming `path`.  No kind admits a bool, although Python
    counts one as an int.  A number must be finite: json.load reads NaN and
    Infinity, and an integer too large for a float would overflow it.
    """
    name, types = kind
    ok = isinstance(value, types) and not isinstance(value, bool)
    if ok and kind is NUMBER:
        try:
            ok = math.isfinite(value)
        except OverflowError:
            ok = False
    if not ok:
        raise ValidationError(
            f"{path}: expected {name}, got {json.dumps(value, default=repr)}"
        )
    return float(value) if kind is NUMBER else value
