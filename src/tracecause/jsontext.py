"""The text ``json.dumps(doc, indent=2)`` gives, written in one pass.

The standard library indents through a pure-Python generator encoder
whose closures refer to each other, so every call leaves a reference
cycle.  `dumps` writes the same characters for the documents the package
writes (strings, integers, booleans, None, and lists, tuples and dicts
with string keys of them) from one plain recursive function, escaping
strings with the encoder's own ASCII escaper, the C one where the
interpreter has it.  Any other value raises `TypeError`, a float among
them; a cycle in the document is not detected and exhausts the
recursion limit.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

_CONSTANTS = {None: "null", True: "true", False: "false"}


def dumps(doc) -> str:
    """``json.dumps(doc, indent=2)``."""
    out: list[str] = []
    _write(doc, out, "\n")
    return "".join(out)


def _write(value, out: list[str], newline: str) -> None:
    # ``newline`` opens each line at the value's own depth.  A container's
    # items of the exact scalar types are written in its loop.
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                out.append(sep)
                _write(item, out, inner)
            else:
                out.append(sep + scalar(item))
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                out.append(sep + _quote(key) + ": ")
                _write(item, out, inner)
            else:
                out.append(sep + _quote(key) + ": " + scalar(item))
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, str):
        out.append(_quote(value))
    elif value is None or value is True or value is False:
        out.append(_CONSTANTS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        f"is not JSON serializable")


# The writer of each scalar type, by exact type (subclasses go through
# `_write`).
_SCALARS = {str: _quote, int: int.__repr__,
            bool: _CONSTANTS.__getitem__, type(None): _CONSTANTS.__getitem__}
