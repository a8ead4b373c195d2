"""State and density-matrix files, and canonical JSON output.

State file: ``{"dims": [d1, ..., dn], "amps": [[re, im], ...]}`` with N
amplitude pairs in big-endian index order.  Density file: ``{"dims": [...],
"rho": [[re, im], ...]}`` with N^2 row-major entry pairs.  Writers emit every
float with 17 significant digits so files round-trip bit exactly.

A file in exactly the writers' layout skips the JSON parser, since ``float``
alone spends about 240 ns on a 17-digit token.  The decoder checks every byte
against the layout with vectorized compares, makes each mantissa an exact
double-double, multiplies it by a double-double power of ten (Dekker's
product, no FMA) and rounds once, within about 2^-102 of the exact value.  A
result within 2^-98 of a rounding boundary, or an exponent past 250, is read
by ``float(token)``, so the result is bit-identical to the JSON route.  It
makes one pass over the pairs in pieces of at most ``_CHUNK`` lines, each
piece's newlines found within it, so it holds the file, the output and a
fixed per-piece allowance: about 3 MiB, under 0.5 MiB on a piece of short
lines it declines, as it counts a piece's newlines before indexing them.
The output is allocated only once the file's size leaves room for its pairs
at 54 bytes a line.  Any other bytes go to ``json.loads``, which reads the
whole schema and words each error.  That reader turns the pairs into numbers
with one ``np.array(pairs, dtype=np.float64)`` and views the (count, 2)
result as complex128; an entry is whatever ``float`` accepts (a number, a
numeric string or a boolean).  ``null`` reads as NaN, which the state and
density constructors refuse.

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

import functools
import gc
import json
import math
import os
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


_CHUNK = 1 << 13  # most lines in a piece: 2^14 numbers keep temporaries L2-sized
_LINE = 54  # bytes in the shortest pair line: "    [", two 22-byte tokens, ", ", "],\n"
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two 26-bit halves


def _split(a):
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _decode_tables():
    """Per k in [-266, 234]: t, the double nearest 10^k, split as hi + mid, and lo,
    nearest 10^k - t; per prefix (zero bytes free), a window's template, check, bias."""
    powers = []
    for k in range(-266, 235):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        head = num / den  # int division rounds correctly
        a, b = head.as_integer_ratio()
        powers.append((head, *_split(head), (num * b - a * den) / (den * b)))
    masks = {}
    for prefix in (b"\n    [", b"    [-", bytes(6)):
        tpl = prefix + b"0." + b"0" * 16 + b"e\0" + b"00" + bytes(4)
        check = bytes(0xF0 if c == 48 else 0xFF if c else 0 for c in tpl)
        bias = bytes(6 if c == 48 else 0 for c in tpl)
        masks[prefix] = [np.frombuffer(x, "<u8")[:, None] for x in (tpl, check, bias)]
    return *np.array(powers).T, masks


def _decode_numbers(buf, windows, start, prefixes):
    """The numbers whose tokens start at ``start`` and the offset past each, or
    None unless each reads -?D.D{16}e[+-]DD[D] after ``prefixes[neg]``."""
    pow_t, pow_hi, pow_mid, pow_lo, masks = _decode_tables()
    first = start + (neg := buf[start] == 45)
    g = windows[first - 6].view(np.uint8).reshape(-1, 32)  # prefix, then the token unsigned
    w = g.view("<u8").T.copy()
    tpl, check, bias = masks[prefixes[0]]
    x = w ^ tpl
    x[0] ^= np.where(neg, masks[prefixes[1]][0][0, 0] ^ tpl[0, 0], 0)
    if ((x | ((x & 0x0F0F0F0F0F0F0F0F) + bias)) & check).any() or ((g[:, 25] - 43) & 0xFD).any():
        return None  # a byte off the template, or an exponent sign not + or -
    v = w[1:3]  # the 16 fraction digits, eight to a word, summed in three steps
    v = ((v & 0x0F0F0F0F0F0F0F0F) * 2561) >> 8
    v = ((v & 0x00FF00FF00FF00FF) * 6553601) >> 16
    v = ((v & 0x0000FFFF0000FFFF) * 42949672960001) >> 32
    top = ((g[:, 6] - 48) * 1e8 + v[0]) * 1e8  # exact: 9 digits times 2^8 5^8
    mh = top + v[1]
    ml = (top - mh) + v[1]  # mh + ml is the 17-digit mantissa, exactly
    three = g[:, 28] - 48 <= 9
    d = g[:, 25:29].astype(np.int64) - 48  # '+' and '-' read as -5 and -3
    e = np.where(three, d[:, 1] * 100 + d[:, 2] * 10 + d[:, 3], d[:, 1] * 10 + d[:, 2]) * (-4 - d[:, 0])
    k = np.clip(e, -250, 250) + 250
    t, th, tm, tl = pow_t[k], pow_hi[k], pow_mid[k], pow_lo[k]
    ah, al = _split(mh)
    p = mh * t  # Dekker's exact product p + err of mh and t, then the rest
    c = (((ah * th - p) + ah * tm + al * th) + al * tm) + (mh * tl + ml * t)
    val = p + c
    tol = p * 2.0**-98  # p + c is far closer than this to the exact value
    slow = (np.abs(e) > 250) | ((p + (c - tol)) != (p + (c + tol)))
    end = first + 22 + three
    for i in np.flatnonzero(slow):
        val[i] = float(bytes(buf[first[i] : end[i]]))
    return np.where(neg, -val, val), end


def _decode_canonical(path, key: str, power: int):
    """The dims and (count, 2) entries of a file in exactly the layout
    ``_write_pairs`` emits, or None for any other bytes (module docstring)."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            buf = np.zeros(size + 64, np.uint8)  # slack: windows overrun a line
            if fh.readinto(memoryview(buf)[:size]) != size or fh.read(1):
                return None
    except OSError:
        return None
    try:
        dims = [int(d) for d in bytes(buf[:256]).split(b"\n", 3)[1][11:-2].split(b", ")]
        header = f'{{\n  "dims": {dims},\n  "{key}": [\n'.encode()
    except (IndexError, ValueError):
        return None
    count, at, stop = math.prod(dims) ** power, len(header), size - 5
    if bytes(buf[:at]) != header or bytes(buf[size - 7 : size]) != b"\n  ]\n}\n":
        return None
    if not 0 <= count <= (stop - at) // _LINE:  # before the count-sized output
        return None
    buf[size - 7 : stop] = (44, 10)  # the last pair's line ends ",\n" like the others
    windows = np.ndarray((size + 33,), "V32", buf, strides=(1,))
    out = np.empty((count, 2))
    row = 0
    while at < stop:
        newlines = buf[at : min(at + _CHUNK * _LINE, stop)] == 10
        if not 0 < np.count_nonzero(newlines) <= min(_CHUNK, count - row):  # a short line, or too many
            return None
        newlines = np.flatnonzero(newlines)  # the mask is freed before the decode
        newlines += at
        starts, commas = np.append(at, newlines[:-1] + 1), newlines - 1
        re = _decode_numbers(buf, windows, starts + 5, (b"\n    [", b"    [-"))
        if re is None or not ((buf[re[1]] == 44) & (buf[re[1] + 1] == 32)).all():
            return None
        im = _decode_numbers(buf, windows, re[1] + 2, (bytes(6), bytes(6)))
        if im is None or not ((im[1] + 1 == commas) & (buf[im[1]] == 93) & (buf[commas] == 44)).all():
            return None
        out[row : row + newlines.size, 0], out[row : row + newlines.size, 1] = re[0], im[0]
        row, at = row + newlines.size, newlines[-1] + 1
    return (dims, out) if row == count else None


def _read(path, key: str, power: int) -> tuple[SystemShape, np.ndarray]:
    """The file's shape and its N^power entries under ``key``, with the
    collector paused until any parsed document is dropped (module docstring)."""

    def parse():  # the document dies with this frame
        decoded = _decode_canonical(path, key, power)
        if decoded is not None:
            return SystemShape(decoded[0]), decoded[1].view(np.complex128).reshape(-1)
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
