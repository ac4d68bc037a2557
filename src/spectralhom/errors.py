"""Exception types shared across the package, and the checked parser of JSON objects."""

import sys


class SpectralHomError(ValueError):
    """Base class for all library errors."""


class RegularityError(SpectralHomError):
    """A pattern matrix is singular or otherwise not a valid lattice matrix."""


class ShapeError(SpectralHomError):
    """Array arguments do not match the pattern they are indexed by."""


class DomainError(SpectralHomError):
    """A numeric parameter lies outside its admissible range."""


class DegenerateGeneratorError(SpectralHomError):
    """A generator does not span an m-dimensional translate space."""


class GeometryError(SpectralHomError):
    """A microstructure definition is geometrically invalid."""


class IngestionError(SpectralHomError):
    """A reference-data file does not match the expected schema or pattern."""


class ConfigError(SpectralHomError):
    """An experiment configuration is invalid or incomplete."""


_TYPE_NAMES = {float: "a finite number", int: "an integer", str: "a string", dict: "an object", list: "a list"}


def _describe(kind) -> str:
    if isinstance(kind, list):
        return f"a list, each item {_describe(kind[0])}"
    return " or ".join(map(_describe, kind)) if isinstance(kind, tuple) else _TYPE_NAMES[kind]


def _checked(value, kind):
    """``value`` as ``kind`` (see :func:`parse_object`); TypeError if it does not conform."""
    if isinstance(kind, list):
        if isinstance(value, list):
            return [_checked(v, kind[0]) for v in value]
    elif kind is float or kind is int:
        number = isinstance(value, (int, float) if kind is float else int) and not isinstance(value, bool)
        if number and abs(value) <= sys.float_info.max:  # NaN fails the comparison
            return kind(value)
    elif isinstance(value, kind):
        return value
    raise TypeError(kind)


def parse_object(doc, spec: dict, where: str, error: type = ConfigError) -> dict:
    """Checked values of the JSON object ``doc``, one per key of ``spec``.

    ``spec`` maps every allowed key to ``(type, default)``.  The default
    ``...`` makes a key required; a default of None also admits an explicit
    null.  ``float`` admits a finite int or float (returned as float), ``int``
    an exact int (``bool`` is neither), ``[t]`` a list of ``t``, and a class
    or tuple of classes an instance of it.  Violations raise ``error`` with a
    message naming ``where`` and the key.
    """
    if not isinstance(doc, dict):
        raise error(f"{where} must be an object, got {doc!r}")
    unknown = sorted(set(doc) - set(spec))
    if unknown:
        raise error(f"{where}: unknown key {unknown[0]!r}; allowed keys are {sorted(spec)}")
    out = {}
    for key, (kind, default) in spec.items():
        value = out[key] = doc.get(key, default)
        if value is ...:
            raise error(f"{where}: missing required key {key!r}")
        if key in doc and not (value is None and default is None):
            try:
                out[key] = _checked(value, kind)
            except TypeError:
                raise error(f"{where}: {key!r} must be {_describe(kind)}, got {value!r}") from None
    return out


def parse_kind(doc, kinds: dict, where: str, error: type = ConfigError) -> dict:
    """:func:`parse_object` for an object whose string "kind" selects its spec in ``kinds``."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise error(f"{where} needs a 'kind' out of {sorted(kinds)}, got {doc!r}")
    return parse_object(doc, {"kind": (str, ...), **kinds[kind]}, f"{kind} {where}", error)
