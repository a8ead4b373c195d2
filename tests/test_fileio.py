"""The direct decoder of the writers' file layout, against ``float`` and
against the JSON route it stands in front of."""

import decimal
import math

import numpy as np
import pytest

from conftest import same_bits, traced_peak
from groverian import (
    DensityMatrix,
    StateVector,
    SystemShape,
    fileio,
    load_density,
    load_state,
    random_state,
    save_density,
    save_state,
)
from groverian.cli import main
from groverian.errors import GroverianError


def canonical_text(tokens, key="amps"):
    """``tokens``, two to a line, in the layout ``_write_pairs`` emits, under
    dims that ``_decode_canonical`` takes at their word: one site per pair."""
    body = ",\n    ".join(f"[{a}, {b}]" for a, b in zip(tokens[::2], tokens[1::2]))
    return f'{{\n  "dims": [{len(tokens) // 2}],\n  "{key}": [\n    {body}\n  ]\n}}\n'


def token(negative, mantissa, exponent):
    digits = f"{mantissa:017d}"
    sign = "-" if exponent < 0 else "+"
    return f"{'-' if negative else ''}{digits[0]}.{digits[1:]}e{sign}{abs(exponent):02d}"


def assert_float_exact(tmp_path, tokens, key="amps"):
    tokens = tokens + ["0.0000000000000000e+00"] * (len(tokens) % 2)
    path = tmp_path / "tokens.json"
    path.write_text(canonical_text(tokens, key))
    decoded = fileio._decode_canonical(path, key, 1)
    assert decoded is not None, "the decoder declined a file in the writers' layout"
    got = decoded[1].reshape(-1)
    want = np.array([float(t) for t in tokens])
    wrong = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert wrong.size == 0, [tokens[i] for i in wrong[:5]]


def neighbours_of_midpoints(x):
    """17-digit tokens at and beside the decimal midpoints around ``x``."""
    out = []
    with decimal.localcontext() as ctx:
        ctx.prec = 1200  # every double and midpoint is exact at this precision
        for y in (np.nextafter(x, -math.inf), np.nextafter(x, math.inf)):
            mid = (decimal.Decimal(float(x)) + decimal.Decimal(float(y))) / 2
            mantissa, exponent = format(mid, ".16e").split("e")
            m = int(mantissa.replace(".", "").replace("-", ""))
            out += [token(mid < 0, n, int(exponent)) for n in (m - 1, m, m + 1) if 0 < n < 10**17]
    return out


class TestExactness:
    """Every number the decoder reads equals ``float(token)`` bit for bit."""

    def test_random_mantissas(self, tmp_path):
        rng = np.random.default_rng(29)
        n = 1 << 16
        mantissa = rng.integers(0, 10**17, n)
        exponent = rng.integers(-260, 261, n)
        negative = rng.integers(0, 2, n)
        assert_float_exact(tmp_path, list(map(token, negative, mantissa, exponent)))

    def test_ties_boundaries_and_ranges(self, tmp_path):
        tokens = [
            "9.0071992547409930e+15",  # 2^53 + 1, a tie that rounds down to even
            "9.0071992547409950e+15",  # 2^53 + 3, a tie that rounds up to even
            "1.8014398509481986e+16",  # 2^54 + 2, a tie
            "0.0000000000000000e+00",
            "-0.0000000000000000e+00",
            "1.2345678901234567e-123",
            "-9.8765432109876543e+249",
            "0.0000000000000001e-250",
            "1.7976931348623157e+308",  # the largest normal double: float()'s path
            "2.2250738585072014e-308",  # the smallest normal double: float()'s path
            "4.9406564584124654e-324",
        ]
        for k in range(-1074, 1024, 5):
            x = math.ldexp(1.0, k)
            neighbours = (np.nextafter(x, 0.0), x, np.nextafter(x, math.inf))
            tokens += [format(float(y), ".16e") for y in neighbours]
            tokens += neighbours_of_midpoints(x)
        for k in range(-300, 301):
            tokens += [token(k % 2, m, k) for m in (10**16, 10**16 + 1, 10**17 - 1, 10**17 - 2)]
        rng = np.random.default_rng(7)
        for x in rng.standard_normal(300) * 10.0 ** rng.integers(-260, 261, 300):
            tokens += neighbours_of_midpoints(x)
        assert_float_exact(tmp_path, tokens)

    @pytest.mark.parametrize("skew", [1 + 2.0**-48, 1 - 2.0**-48])
    def test_near_ties_take_floats_path(self, tmp_path, monkeypatch, skew):
        """No error under 2^-98 decides a rounding: with the table's low words
        skewed by about 2^-101, ties 2^53 + odd still round as ``float`` does."""
        *powers, masks = fileio._decode_tables()
        powers[3] = powers[3] * skew
        monkeypatch.setattr(fileio, "_decode_tables", lambda: (*powers, masks))
        ties = [str(2**53 + n) for n in range(1, 4000, 2)]
        assert_float_exact(tmp_path, [f"{s[0]}.{s[1:]}0e+15" for s in ties])


def piece_tokens(count, layout, seed):
    """Two tokens per pair for ``count`` pairs.  "shortest" makes every line
    the shortest pair line, so each piece holds exactly ``_CHUNK`` of them;
    "mixed" draws signs and exponents from -300 to 300, 3-digit ones too."""
    rng = np.random.default_rng(seed)
    mantissa = rng.integers(0, 10**17, 2 * count)
    if layout == "shortest":
        negative, exponent = np.zeros(2 * count, int), rng.integers(-99, 100, 2 * count)
    else:
        negative, exponent = rng.integers(0, 2, 2 * count), rng.integers(-300, 301, 2 * count)
    return list(map(token, negative, mantissa, exponent))


PIECE_COUNTS = [fileio._CHUNK - 1, fileio._CHUNK, fileio._CHUNK + 1, 3 * fileio._CHUNK + 7]


class TestPieces:
    """Pairs on either side of a piece boundary decode like all others."""

    @pytest.mark.parametrize("key", ["amps", "rho"])
    @pytest.mark.parametrize("layout", ["shortest", "mixed"])
    @pytest.mark.parametrize("count", PIECE_COUNTS)
    def test_decodes_like_float(self, tmp_path, key, layout, count):
        tokens = piece_tokens(count, layout, count)
        if layout == "shortest":
            text = canonical_text(tokens, key)
            assert len(text) == text.index("[\n") + 2 + count * fileio._LINE + 5
        assert_float_exact(tmp_path, tokens, key)

    # Offsets into a shortest pair line "    [A, B],\n": A's "e", the comma
    # between the numbers, the comma that ends the line, the newline.
    @pytest.mark.parametrize("key", ["amps", "rho"])
    @pytest.mark.parametrize(
        "offset, old, new", [(23, "e", "E"), (27, ",", ";"), (52, ",", " "), (53, "\n", " ")]
    )
    def test_mutated_middle_piece_declines(self, tmp_path, monkeypatch, key, offset, old, new):
        text = canonical_text(piece_tokens(3 * fileio._CHUNK + 7, "shortest", 5), key)
        # Pieces hold _CHUNK shortest lines each; the second one's last line:
        at = text.index("[\n") + 2 + (2 * fileio._CHUNK - 1) * fileio._LINE + offset
        assert text[at] == old
        path = tmp_path / "mutated.json"
        path.write_text(text[:at] + new + text[at + 1 :])
        assert_declined_as_json_reads(monkeypatch, path, key)

    def test_fewer_lines_than_dims_declines(self, tmp_path, monkeypatch):
        # 58-byte lines: 100 of them pass the size bound for 101 pairs.
        rng = np.random.default_rng(8)
        mantissa, exponent = rng.integers(0, 10**17, 200), rng.integers(-250, -99, 200)
        tokens = [token(True, m, e) for m, e in zip(mantissa, exponent)]
        text = canonical_text(tokens).replace('"dims": [100]', '"dims": [101]')
        assert len(text) - text.index("[\n") - 2 - 5 >= 101 * fileio._LINE
        path = tmp_path / "short.json"
        path.write_text(text)
        assert_declined_as_json_reads(monkeypatch, path, "amps")

    def test_short_lines_decline_before_decoding(self, tmp_path):
        # 16-byte lines: the first piece holds 3.4 * _CHUNK newlines, under
        # the dims' count, which the file's bytes leave room for.
        lines = 12 * fileio._CHUNK
        count = lines * 16 // fileio._LINE
        body = ",\n".join(["    [0.5, 0.5]"] * lines)
        path = tmp_path / "short-lines.json"
        path.write_text(f'{{\n  "dims": [{count}],\n  "amps": [\n{body}\n  ]\n}}\n')
        declined, peak = traced_peak(lambda: fileio._decode_canonical(path, "amps", 1))
        assert declined is None
        assert peak < path.stat().st_size + 16 * count + 2**20

    def test_blank_lines_decline_before_indexing(self, tmp_path):
        # A first piece of newlines only: _CHUNK * _LINE of them, 54 times
        # the cap, which the piece's newline count refuses before any index.
        count = fileio._CHUNK
        path = tmp_path / "blank-lines.json"
        body = "\n" * (count * fileio._LINE)
        path.write_text(f'{{\n  "dims": [{count}],\n  "amps": [\n{body}\n  ]\n}}\n')
        declined, peak = traced_peak(lambda: fileio._decode_canonical(path, "amps", 1))
        assert declined is None
        assert peak < path.stat().st_size + 16 * count + 2**20


def read_outcome(path, key):
    """What ``_read`` gives with one pair per site: the dims and entry bits,
    or the error's type and text."""
    try:
        shape, entries = fileio._read(path, key, 1)
    except GroverianError as exc:
        return type(exc), str(exc)
    return shape.dims, entries.view(np.uint64).tobytes()


def assert_declined_as_json_reads(monkeypatch, path, key):
    """The decoder declines ``path``, and reading it gives the JSON route's outcome."""
    assert fileio._decode_canonical(path, key, 1) is None
    direct = read_outcome(path, key)
    json_route(monkeypatch)
    assert direct == read_outcome(path, key)


def json_route(monkeypatch):
    monkeypatch.setattr(fileio, "_decode_canonical", lambda path, key, power: None)


def outcome(load, path):
    """What a load gives: its entries' bits, or the error's type and text."""
    try:
        x = load(path)
    except GroverianError as exc:
        return type(exc), str(exc)
    entries = x.amps if isinstance(x, StateVector) else x.entries
    return entries.view(np.uint64).tobytes()


def cli_outcome(capsys, flag, path):
    code = main(["groverian", flag, str(path)])
    out, err = capsys.readouterr()
    return code, [line for line in out.splitlines() if '"duration_s"' not in line], err


def rreplace(text, old, new):
    head, _, tail = text.rpartition(old)
    return head + new + tail


KINDS = {
    "state": ("amps", "--state", load_state, save_state,
              lambda: StateVector(SystemShape([2] * 3), np.array([0.6, -0.48j, 0, 0.64, 0, 0, 0, 0]))),
    "density": ("rho", "--mixed", load_density, save_density,
                lambda: DensityMatrix(SystemShape([2, 2]), np.diag([0.5, 0.25, 0.125, 0.125]) + 0j)),
}
# One change each to a canonical file; every result must match the JSON route's.
MUTATIONS = {
    "crlf": lambda t, key: t.replace("\n", "\r\n"),
    "tab-indent": lambda t, key: t.replace("\n    [", "\n\t["),
    "missing-space": lambda t, key: rreplace(t, ", ", ","),
    "upper-e": lambda t, key: rreplace(t, "e", "E"),
    "plus-mantissa": lambda t, key: t.replace("\n    [", "\n    [+", 1),
    "16-digit": lambda t, key: t.replace("0000000000000000e", "000000000000000e", 1),
    "dims-02": lambda t, key: t.replace('"dims": [2', '"dims": [02', 1),
    "extra-key": lambda t, key: t.replace("{\n", '{\n  "note": 1,\n', 1),
    "reordered": lambda t, key: "{\n" + t[t.index(f'  "{key}"') : -3] + ",\n" + t[2 : t.index(f'  "{key}"') - 2] + "\n}\n",
    "trailing": lambda t, key: t + " \n",
    "bom": lambda t, key: "\ufeff" + t,
    "nan": lambda t, key: rreplace(t, "0.0000000000000000e+00", "NaN"),
    "truncated": lambda t, key: t[:-12],
    "wrong-count": lambda t, key: t[: t.rindex(",\n")] + "\n  ]\n}\n",
    "over-cap": lambda t, key: t.replace('"dims": [', '"dims": [1073741824, ', 1),
    # 2^20 pairs declared, under the cap, and a few held
    "inflated-dims": lambda t, key: t.replace('"dims": [', f'"dims": [{2**17 if key == "amps" else 2**8}, ', 1),
    "space-for-comma": lambda t, key: rreplace(t, "],\n", "] \n"),
    "tab-after-comma": lambda t, key: rreplace(t, ", ", ",\t"),
    "space-before-comma": lambda t, key: rreplace(t, "],\n", "] ,\n"),
    "semicolon": lambda t, key: rreplace(t, ", ", "; "),
    "paren": lambda t, key: rreplace(t, "]\n  ]", ")\n  ]"),
    "exponent-sign": lambda t, key: rreplace(t, "e+", "e*"),
    "other-key": lambda t, key: t.replace(f'"{key}"', '"rho"' if key == "amps" else '"amps"'),
    "closing-brace": lambda t, key: rreplace(t, "}", ")"),
}


class TestFallback:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_same_as_json_route(self, tmp_path, monkeypatch, capsys, kind, mutation):
        key, flag, load, save, build = KINDS[kind]
        save(build(), tmp_path / "canonical.json")
        text = (tmp_path / "canonical.json").read_text()
        path = tmp_path / "mutated.json"
        path.write_bytes(MUTATIONS[mutation](text, key).encode())
        assert path.read_bytes() != text.encode()
        power = 1 if kind == "state" else 2
        declined, peak = traced_peak(lambda: fileio._decode_canonical(path, key, power))
        assert declined is None
        assert peak < 2**20  # no count-sized array before the bytes are known to hold it
        direct = outcome(load, path), cli_outcome(capsys, flag, path)
        json_route(monkeypatch)
        assert direct == (outcome(load, path), cli_outcome(capsys, flag, path))

    @pytest.mark.parametrize("dims", [[0], [2, 0]])
    def test_no_pairs_same_as_json_route(self, tmp_path, monkeypatch, dims):
        path = tmp_path / "empty.json"
        path.write_text(f'{{\n  "dims": {dims},\n  "amps": [\n  ]\n}}\n')
        direct = outcome(load_state, path)
        json_route(monkeypatch)
        assert direct == outcome(load_state, path)


def pure_density(state):
    return DensityMatrix(state.shape, np.outer(state.amps, state.amps.conj()))


class TestMemory:
    def test_reader_holds_file_output_and_one_piece(self, tmp_path):
        n = 1 << 17
        state = random_state(SystemShape([2] * 17), 6)
        path = tmp_path / "wide.json"
        save_state(state, path)
        loaded, peak = traced_peak(lambda: load_state(path))
        assert same_bits(loaded.amps, state.amps)
        assert peak <= path.stat().st_size + 16 * n + 4 * 2**20


class TestWriterReaderContract:
    """Every file the writers emit is decoded without the JSON parser."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: random_state(SystemShape([3, 2]), 1),
            lambda: random_state(SystemShape([5]), 2),
            lambda: random_state(SystemShape([2] * 14), 3),
            lambda: pure_density(random_state(SystemShape([2, 3]), 4)),
        ],
        ids=["qudits", "one-site", "2^14", "density"],
    )
    def test_decoded_directly(self, tmp_path, monkeypatch, build):
        x = build()

        def refuse(path):
            raise AssertionError("the JSON route ran")

        monkeypatch.setattr(fileio, "_load_json", refuse)
        path = tmp_path / "written.json"
        if isinstance(x, StateVector):
            save_state(x, path)
            assert same_bits(load_state(path).amps, x.amps)
        else:
            save_density(x, path)
            assert same_bits(load_density(path).entries, x.entries)
