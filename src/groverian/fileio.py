"""State and density-matrix files, and canonical JSON output.

State file: ``{"dims": [d1, ..., dn], "amps": [[re, im], ...]}`` with N
amplitude pairs in big-endian index order.  Density file: ``{"dims": [...],
"rho": [[re, im], ...]}`` with N^2 row-major entry pairs.  A reader turns
the pairs into numbers with one ``np.array(pairs, dtype=np.float64)`` and
views the (count, 2) result as complex128; an entry is whatever ``float``
accepts (a number, a numeric string or a boolean).  ``null`` reads as NaN,
which the state and density constructors refuse.  Writers emit every float
with 17 significant digits so files round-trip bit exactly.

A file is read with the cyclic garbage collector paused, from the parse
until the parsed document is dropped, and restored as it was on every exit.
A large file is mostly small lists, N of them for N pairs, and each one
counts toward the collector's thresholds, so a parse left running would
start hundreds of collections that rescan those lists, and a collector
resumed while the document lives would rescan them once more.  Pausing is
safe because ``json.loads`` builds only lists, dicts, strings and numbers,
each new object owned by one parent, so the read can make no reference
cycle for a collection to free.  A file that is not UTF-8, nests
deeper than the parser's recursion limit or holds an integer past Python's
digit limit is a ``FileFormatError``, as malformed JSON is.
"""

from __future__ import annotations

import gc
import json
import math
from pathlib import Path

import numpy as np

from .errors import GroverianError, NonFiniteResult
from .statevector import DensityMatrix, StateVector, SystemShape, _readonly


class FileFormatError(GroverianError):
    """Input file could not be parsed or violates the schema."""


def format_float(x: float) -> str:
    """17 significant digits, enough to reproduce any double exactly.

    JSON has no literal for NaN or infinity, so a non-finite value raises
    ``NonFiniteResult`` instead of being written as ``null``.
    """
    x = float(x)
    if not math.isfinite(x):
        raise NonFiniteResult(f"cannot serialize non-finite value {x!r}")
    return format(x, ".16e")


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 digits.

    Identical inputs serialize to identical bytes, which is what makes
    run reports diffable across invocations.
    """
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {canonical_json(v, indent + 2)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq)
        if flat:
            return "[" + ", ".join(canonical_json(v) for v in seq) + "]"
        items = ",\n".join(f"{inner}{canonical_json(v, indent + 2)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.loads(fh.read())
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{path}: JSON nests too deeply") from exc
    except ValueError as exc:  # the one ValueError left: int's digit limit
        raise FileFormatError(f"{path}: an integer has more digits than Python converts") from exc
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be a JSON object")
    return doc


def _parse_pairs(raw, count: int, path, key: str) -> np.ndarray:
    message = f"{path}: '{key}' must hold {count} [re, im] pairs of numbers"
    if not isinstance(raw, list) or len(raw) != count:
        raise FileFormatError(message)
    try:
        pairs = np.array(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(message) from exc
    if pairs.shape != (count, 2):
        raise FileFormatError(message)
    return pairs.view(np.complex128).reshape(count)


def _parse_dims(doc, path) -> SystemShape:
    dims = doc.get("dims")
    if not isinstance(dims, list) or not all(isinstance(d, int) for d in dims):
        raise FileFormatError(f"{path}: 'dims' must be an array of integers")
    return SystemShape(dims)


def _read(path, key: str, power: int) -> tuple[SystemShape, np.ndarray]:
    """The file's shape and its N^power entries under ``key``, read with the
    collector paused until the document is dropped (module docstring)."""

    def parse():  # the document dies with this frame
        doc = _load_json(path)
        shape = _parse_dims(doc, path)
        return shape, _parse_pairs(doc.get(key), shape.total**power, path, key)

    enabled = gc.isenabled()
    gc.disable()
    try:
        return parse()
    finally:
        if enabled:
            gc.enable()


def load_state(path) -> StateVector:
    shape, amps = _read(path, "amps", 1)
    return StateVector(shape, _readonly(amps))


def _write_pairs(path, dims, key: str, values: np.ndarray) -> None:
    body = ",\n    ".join(f"[{format_float(z.real)}, {format_float(z.imag)}]" for z in values)
    text = (
        "{\n"
        f'  "dims": {list(dims)},\n'
        f'  "{key}": [\n    ' + body + "\n  ]\n}\n"
    )
    Path(path).write_text(text, encoding="utf-8")


def save_state(state: StateVector, path) -> None:
    _write_pairs(path, state.shape.dims, "amps", state.amps)


def load_density(path) -> DensityMatrix:
    shape, entries = _read(path, "rho", 2)
    return DensityMatrix(shape, _readonly(entries).reshape(shape.total, shape.total))


def save_density(rho: DensityMatrix, path) -> None:
    _write_pairs(path, rho.shape.dims, "rho", rho.entries.reshape(-1))
