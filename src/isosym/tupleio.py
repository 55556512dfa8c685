"""The program's JSON: ``dumps`` encodes tuple files, reports and
counterexamples, ``load`` decodes every file read.  A tuple file holds
complex entries as finite [re, im] pairs; its layout (indented here to show
the structure; files are one compact line, and a file in any layout reads):

    {
      "d": 2,
      "dim": 3,
      "matrices": [ [[[re,im], ...], ...], ... ],   # d entries, each dim x dim
      "metadata": {"name": ..., "seed": ..., "construction": {...}}
    }

Serialization uses Python's shortest round-trip float formatting, so
write -> read is bit-exact on the numeric payload.  A file that parses
structurally but fails the commutation invariant does not load.
"""

import dataclasses
import json
import numbers

import numpy as np

from .defect import MultiOperator
from .errors import ParseError

FORMAT_KEYS = {"d", "dim", "matrices", "metadata"}


def _plain(value):
    """A complex number as [re, im], a dataclass record as its fields."""
    if isinstance(value, complex):
        return [float(value.real), float(value.imag)]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: getattr(value, f.name)
                for f in dataclasses.fields(value)}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def dumps(value):
    """``value`` as one line of compact JSON, newline included."""
    return json.dumps(value, default=_plain) + "\n"


def load(path):
    """(document, bytes) of the UTF-8 JSON file ``path``, else ParseError."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return json.loads(raw.decode("utf-8")), raw
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"invalid JSON in {path}: nested too deeply") from exc


def matrix_to_json(mat):
    """Nested-list [re, im] encoding of a matrix, or of a stack of them."""
    mat = np.ascontiguousarray(mat, dtype=np.complex128)
    return mat.view(np.float64).reshape(mat.shape + (2,)).tolist()


def matrix_from_json(rows, dim):
    """One dim x dim matrix from its nested [re, im] lists.

    Every entry must be exactly two finite real numbers (booleans are not
    numbers here), else ParseError.
    """
    parts = np.array(rows, dtype=object)  # (dim, dim, 2) when well formed
    if parts.ndim != 3 or parts.shape[2] != 2:
        raise ParseError("bad matrix entry: every entry must be a pair "
                         "[re, im] of real numbers")
    if parts.shape[:2] != (dim, dim):
        raise ParseError(f"matrix shape {parts.shape[:2]} does not match "
                         f"dim {dim}")
    for kind in set(map(type, parts.flat)):
        if not issubclass(kind, numbers.Real) or issubclass(kind, bool):
            raise ParseError(f"bad matrix entry: {kind.__name__} is not a "
                             "real number")
    try:
        pairs = parts.astype(np.float64)
    except OverflowError as exc:
        raise ParseError(f"bad matrix entry: {exc}") from exc
    if not np.isfinite(pairs).all():
        raise ParseError("matrix entries must be finite (no NaN or Infinity)")
    return pairs.view(np.complex128)[..., 0]


def tuple_to_dict(op, metadata=None):
    out = {"d": op.d, "dim": op.dim,
           "matrices": matrix_to_json(op.stack)}
    if metadata:
        out["metadata"] = metadata
    return out


def _is_integer(value):
    """Is ``value`` a schema integer?  2.0 is one, a boolean is not."""
    return not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or (isinstance(value, float) and value.is_integer()))


def _count(name, value):
    """``value`` as an int if the schema takes it as a count (an integer
    of at least 1), else ParseError."""
    if not _is_integer(value) or value < 1:
        raise ParseError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def tuple_from_dict(data):
    """Parse a tuple dict; returns (MultiOperator, metadata).

    Raises ParseError for structural problems and CommutationViolated when
    the matrices do not commute within tolerance.
    """
    if not isinstance(data, dict):
        raise ParseError("tuple file must be a JSON object")
    unknown = set(data) - FORMAT_KEYS
    if unknown:
        raise ParseError(f"unknown keys in tuple file: {sorted(unknown)}")
    try:
        d, dim, raw = data["d"], data["dim"], data["matrices"]
    except KeyError as exc:
        raise ParseError(f"missing field: {exc}") from exc
    d, dim = _count("d", d), _count("dim", dim)
    if not isinstance(raw, list) or len(raw) != d:
        raise ParseError(f"expected {d} matrices, got "
                         f"{len(raw) if isinstance(raw, list) else type(raw)}")
    mats = [matrix_from_json(rows, dim) for rows in raw]
    metadata = data.get("metadata", {})
    if not (isinstance(metadata, dict)
            and isinstance(metadata.get("name", ""), str)
            and _is_integer(metadata.get("seed", 0))
            and isinstance(metadata.get("construction", {}), dict)):
        raise ParseError("metadata must be an object with a string name, an "
                         "integer seed and an object construction")
    return MultiOperator(mats), metadata


def write_tuple(path, op, metadata=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(tuple_to_dict(op, metadata)))


def read_tuple(path):
    return tuple_from_dict(load(path)[0])
