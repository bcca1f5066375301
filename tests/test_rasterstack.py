import datetime
import hashlib
import re
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import BYTE_EDITS, make_grid, mutate_bytes, write_scene
from streetcrop import rasterstack
from streetcrop.errors import DataValidationError
from streetcrop.geocore import GeoPoint
from streetcrop.rasterstack import (
    BAND_NAMES,
    FeatureName,
    GeoreferenceMismatchError,
    GridFormatError,
    MissingBandError,
    OutOfExtentError,
    SceneManifest,
    SceneStack,
    UnusablePixelError,
    compute_index,
    read_grid,
    read_manifest,
    sample_pixel,
    write_grid,
    write_manifest,
)


# --------------------------------------------------------------------------
# Independent scalar re-implementation of the four index equations,
# deliberately written from the definitions and kept free of any
# package code. This is the oracle the vectorized path is held to.
# --------------------------------------------------------------------------


def oracle_index(kind, nir=None, red=None, blue=None, green=None, swir1=None):
    if kind == "NDVI":
        return (nir - red) / (nir + red)
    if kind == "EVI":
        return 2.5 * (nir - red) / (nir + 6.0 * red - 7.0 * blue + 1.0)
    if kind == "ENDVI":
        return ((nir + green) - 2.0 * blue) / ((nir + green) + 2.0 * blue)
    if kind == "LSWI":
        return (nir - swir1) / (nir + swir1)
    raise AssertionError(kind)


def grid_of(value):
    return make_grid([[value]])


def index_scalar(kind, **bands):
    grids = {name: grid_of(v) for name, v in bands.items()}
    return compute_index(kind, grids).values[0, 0]


class TestGridIO:
    def test_round_trip(self, tmp_path):
        grid = make_grid([[1.0, -2.5], [3.125, -9999.0]], xll=-119.45, yll=35.42)
        write_grid(grid, tmp_path / "g.grid")
        back = read_grid(tmp_path / "g.grid")
        assert back.same_georef(grid)
        np.testing.assert_array_equal(back.values, grid.values)

    def test_nodata_survives(self, tmp_path):
        grid = make_grid([[-9999.0, 0.25]])
        write_grid(grid, tmp_path / "g.grid")
        back = read_grid(tmp_path / "g.grid")
        assert back.values[0, 0] == -9999.0

    def test_row_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.grid"
        path.write_text(
            "ncols 3\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 0.001\n"
            "NODATA_value -9999\n1 2\n"
        )
        with pytest.raises(GridFormatError):
            read_grid(path)

    def test_missing_header_key(self, tmp_path):
        path = tmp_path / "bad.grid"
        path.write_text("ncols 1\nnrows 1\n1\n")
        with pytest.raises(GridFormatError):
            read_grid(path)

    def test_scale_on_ingest(self, tmp_path):
        grid = make_grid([[5000.0, -9999.0]])
        write_grid(grid, tmp_path / "g.grid")
        back = read_grid(tmp_path / "g.grid", scale=0.0001)
        assert back.values[0, 0] == pytest.approx(0.5)
        assert back.values[0, 1] == -9999.0  # nodata untouched by scaling

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataValidationError):
            read_grid(tmp_path / "absent.grid")

    HEADER = "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 0.001\nNODATA_value -9999\n"

    def read_text(self, tmp_path, text):
        path = tmp_path / "bad.grid"
        path.write_text(text)
        return read_grid(path)

    def test_non_numeric_body_token_rejected(self, tmp_path):
        with pytest.raises(GridFormatError):
            self.read_text(tmp_path, self.HEADER + "0.5 x\n")

    @pytest.mark.parametrize(
        "row", ["1_0 \u0663", "1_0 0.5", "0.5 \u0663", "0.5 inf", "0.5 0x1p-2", "0.5 \uff15"]
    )
    def test_body_numeral_outside_the_ascii_grammar_rejected(self, tmp_path, row):
        """``float`` would read ``1_0 \u0663`` as ``[10, 3]``."""
        with pytest.raises(GridFormatError, match="bad.grid"):
            self.read_text(tmp_path, self.HEADER + row + "\n")

    @pytest.mark.parametrize(
        "old,new",
        [
            ("xllcorner 0", "xllcorner \u0663"),
            ("cellsize 0.001", "cellsize 1_0e-1"),
            ("ncols 2", "ncols \u0662"),
            ("nrows 1", "nrows 0_1"),
            ("NODATA_value -9999", "NODATA_value -9_999"),
        ],
    )
    def test_header_numeral_outside_the_ascii_grammar_rejected(self, tmp_path, old, new):
        with pytest.raises(GridFormatError, match="bad.grid"):
            self.read_text(tmp_path, self.HEADER.replace(old, new) + "0.5 0.25\n")

    def test_fractional_ncols_rejected(self, tmp_path):
        text = self.HEADER.replace("ncols 2", "ncols 2.5")
        with pytest.raises(GridFormatError):
            self.read_text(tmp_path, text + "0.5 0.25\n")

    def test_non_numeric_header_value_rejected(self, tmp_path):
        text = self.HEADER.replace("xllcorner 0", "xllcorner abc")
        with pytest.raises(GridFormatError):
            self.read_text(tmp_path, text + "0.5 0.25\n")

    def test_non_finite_header_value_rejected(self, tmp_path):
        text = self.HEADER.replace("cellsize 0.001", "cellsize nan")
        with pytest.raises(GridFormatError):
            self.read_text(tmp_path, text + "0.5 0.25\n")

    def test_repeated_header_key_extends_the_header(self, tmp_path):
        grid = self.read_text(tmp_path, "ncols 5\n" + self.HEADER + "0.5 0.25\n")
        assert grid.ncols == 2
        np.testing.assert_array_equal(grid.values, [[0.5, 0.25]])

    def test_negative_count_rejected(self, tmp_path):
        text = self.HEADER.replace("ncols 2\nnrows 1", "ncols -3\nnrows 0")
        with pytest.raises(GridFormatError):
            self.read_text(tmp_path, text)

    def test_non_utf8_byte_rejected(self, tmp_path):
        path = tmp_path / "bad.grid"
        path.write_bytes(self.HEADER.encode() + b"0.5 0.\xff\n")
        with pytest.raises(GridFormatError):
            read_grid(path)

    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(BYTE_EDITS)
    def test_mutated_grid_raises_only_data_errors(self, tmp_path, edits):
        path = tmp_path / "g.grid"
        write_grid(make_grid([[0.125, -9999.0, 3.0], [1.5, 0.25, -2.0]], xll=-119.45), path)
        path.write_bytes(mutate_bytes(path.read_bytes(), edits))
        try:
            read_grid(path)
        except GridFormatError as exc:
            assert str(path) in str(exc)


#: The value classes a grid file must carry exactly: signed zeros, short and
#: long decimals, integers at and past 2**53 and 2**63, subnormals, nodata.
SPECIAL_VALUES = [
    -0.0, 0.0, 1e-05, 0.1, -1.5, 2.0**53, 2.0**53 + 2, 2.0**63 - 1024, -(2.0**63),
    2.0**63, 1e300, 5e-324, 2.2250738585072014e-308, -9999.0,
]
FLOAT_VALUES = st.one_of(
    st.sampled_from(SPECIAL_VALUES), st.floats(allow_nan=False, allow_infinity=False)
)
INTEGRAL_VALUES = st.one_of(
    st.sampled_from([v for v in SPECIAL_VALUES if float(v).is_integer()]),
    st.integers(-(2**62), 2**62).map(float),
)


def grids_of(values):
    return st.integers(1, 4).flatmap(
        lambda ncols: st.lists(
            st.lists(values, min_size=ncols, max_size=ncols), min_size=1, max_size=4
        )
    )


GRID_ROWS = st.one_of(grids_of(FLOAT_VALUES), grids_of(INTEGRAL_VALUES))


def old_format_value(v):
    """The per-value formatter text grids were always written with."""
    return str(int(v)) if float(v).is_integer() else repr(float(v))


HEADER_LINES = 6


def write_text_grid(grid, path):
    """``grid`` as hand-made ESRI-ASCII text: its header, then one line per row."""
    lines = [
        f"ncols {grid.ncols}", f"nrows {grid.nrows}", f"xllcorner {old_format_value(grid.xll)}",
        f"yllcorner {old_format_value(grid.yll)}", f"cellsize {old_format_value(grid.cellsize)}",
        f"NODATA_value {old_format_value(grid.nodata)}",
    ]
    lines += [" ".join(old_format_value(v) for v in row) for row in grid.values]
    path.write_text("\n".join(lines) + "\n")


def text_read(path, **kwargs):
    """``read_grid`` of the text twin of the binary grid at ``path``: the same
    grid written by hand as ESRI-ASCII text next to it."""
    twin = path.with_name(path.name + ".asc")
    write_text_grid(read_grid(path), twin)
    with mock.patch.object(rasterstack, "_payload_values", side_effect=AssertionError):
        return read_grid(twin, **kwargs)


def stale_twin(path):
    """Where an older writer left a ``.f8`` twin next to the grid at ``path``."""
    return path.with_name(path.name + ".f8")


def write_stale_twin(path, payload):
    """An old-form twin of the grid at ``path``: a digest line, then ``payload``."""
    digest = hashlib.sha256(path.read_bytes() + payload).hexdigest().encode()
    stale_twin(path).write_bytes(digest + b"\n" + payload)


def split_grid(path):
    """(header lines, dtype, payload) of the binary grid at ``path``."""
    data = path.read_bytes()
    *header, dtype, payload = data.split(b"\n", HEADER_LINES + 1)
    assert dtype.startswith(b"dtype "), data[:80]
    return [line.decode() for line in header], np.dtype(dtype[6:].decode()), payload


def flip_byte(data, at):
    return data[:at] + bytes([data[at] ^ 0x40]) + data[at + 1 :]


def assert_same_grid(a, b):
    assert (a.ncols, a.nrows, a.xll, a.yll, a.cellsize, a.nodata) == (
        b.ncols, b.nrows, b.xll, b.yll, b.cellsize, b.nodata
    )
    assert a.values.dtype == b.values.dtype == np.float64
    assert a.values.tobytes() == b.values.tobytes()


def narrowest_dtype(values):
    """The payload type the one form promises: the first of ``<i2``, ``<i4``
    and ``<f8`` through which every value comes back as the same float."""
    for dtype in ("<i2", "<i4"):
        info = np.iinfo(dtype)
        if all(float(v).is_integer() and info.min <= v <= info.max for v in values.flat):
            return np.dtype(dtype)
    return np.dtype("<f8")


class TestGridTwin:
    """A binary grid against its text twin, the same grid written by hand as
    ESRI-ASCII text, which ``read_grid`` parses through ``_parse_body``; and
    the ``.f8`` twin an older writer left next to each grid, which no reader
    opens now."""

    @settings(max_examples=200, deadline=None)
    @given(GRID_ROWS)
    def test_text_bytes_match_the_per_value_formatter(self, rows):
        """The header lines are the text grid's header, byte for byte."""
        with tempfile.TemporaryDirectory() as tmp:
            path, twin = Path(tmp) / "g.grid", Path(tmp) / "g.asc"
            grid = make_grid(rows, xll=-119.45, yll=35.42)
            write_grid(grid, path)
            write_text_grid(grid, twin)
            header, _, _ = split_grid(path)
            assert header == twin.read_text().splitlines()[:HEADER_LINES]

    @settings(max_examples=200, deadline=None)
    @given(GRID_ROWS)
    def test_twin_read_equals_text_read_bit_for_bit(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path, twin = Path(tmp) / "g.grid", Path(tmp) / "g.asc"
            grid = make_grid(rows, xll=-119.45, yll=35.42)
            write_grid(grid, path)
            write_text_grid(grid, twin)
            with mock.patch.object(rasterstack, "_parse_body", side_effect=AssertionError):
                binary = read_grid(path)  # the values come from the payload, not text
            with mock.patch.object(rasterstack, "_payload_values", side_effect=AssertionError):
                text = read_grid(twin)
            assert_same_grid(binary, text)

    def test_twin_layout(self, tmp_path):
        path = tmp_path / "B4.grid"
        write_grid(make_grid([[-0.0, 0.5, -9999.0]]), path)
        header, dtype, payload = split_grid(path)
        assert header[:2] == ["ncols 3", "nrows 1"] and dtype == np.dtype("<f8")
        assert payload == np.array([0.0, 0.5, -9999.0], dtype="<f8").tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["B4.grid"]

    def write_pair(self, tmp_path):
        """A text grid with an old-form ``.f8`` twin that matches it."""
        path = tmp_path / "g.grid"
        grid = make_grid([[0.125, -9999.0, 3.0], [1.5, 0.25, -2.0]], xll=-119.45)
        write_text_grid(grid, path)
        write_stale_twin(path, (grid.values + 0.0).astype("<f8").tobytes())
        return path

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda twin: twin.unlink(),
            lambda twin: twin.write_bytes(twin.read_bytes()[:-1]),
            lambda twin: twin.write_bytes(twin.read_bytes() + b"\0"),
            lambda twin: twin.write_bytes(twin.read_bytes()[:-8] + np.float64(7.0).tobytes()),
            lambda twin: twin.write_bytes(twin.read_bytes().replace(b"\n", b"0\n", 1)),
            lambda twin: twin.write_bytes(b""),
            lambda twin: (twin.unlink(), twin.mkdir()),
            lambda twin: twin.write_bytes(flip_byte(twin.read_bytes(), -3)),
        ],
        ids=[
            "missing", "truncated", "extended", "edited", "bad-digest", "empty", "directory",
            "flipped-payload-byte",
        ],
    )
    def test_spoiled_twin_reads_the_text(self, tmp_path, spoil):
        path = self.write_pair(tmp_path)
        expected = read_grid(path)
        spoil(stale_twin(path))
        assert_same_grid(read_grid(path), expected)
        np.testing.assert_array_equal(expected.values[0], [0.125, -9999.0, 3.0])

    def test_twin_of_another_grid_is_ignored(self, tmp_path):
        path = tmp_path / "g.grid"
        write_grid(make_grid([[0.125, -9999.0, 3.0], [1.5, 0.25, -2.0]], xll=-119.45), path)
        write_stale_twin(path, np.full(6, 9.0).astype("<f8").tobytes())
        assert_same_grid(read_grid(path), text_read(path))
        np.testing.assert_array_equal(read_grid(path).values[0], [0.125, -9999.0, 3.0])

    def test_edited_text_reads_the_new_value(self, tmp_path):
        path = self.write_pair(tmp_path)
        path.write_text(path.read_text().replace("0.125", "0.375"))
        assert read_grid(path).values[0, 0] == 0.375

    def test_malformed_text_raises_despite_the_twin(self, tmp_path):
        path = self.write_pair(tmp_path)
        path.write_text(path.read_text().replace("0.125", "x"))
        with pytest.raises(GridFormatError, match="g.grid"):
            read_grid(path)

    def test_malformed_header_raises_despite_the_twin(self, tmp_path):
        path = tmp_path / "g.grid"
        write_grid(make_grid([[0.125, -9999.0, 3.0], [1.5, 0.25, -2.0]]), path)
        path.write_bytes(path.read_bytes().replace(b"ncols 3", b"ncols 3.5"))
        write_stale_twin(path, np.zeros(6).astype("<f8").tobytes())
        with pytest.raises(GridFormatError, match="ncols"):
            read_grid(path)

    @pytest.mark.parametrize("sep", ["\x0c", "\u2028", "\r\n", "\x85"])
    @pytest.mark.parametrize("binary", [True, False])
    def test_lines_break_where_str_splitlines_breaks_them(self, tmp_path, sep, binary):
        """Header lines, and a text grid's rows, break where ``str.splitlines``
        breaks them; a binary grid's ``dtype`` line starts after a newline."""
        path = tmp_path / "g.grid"
        write_grid(make_grid([[0.125, -9999.0, 3.0], [1.5, 0.25, -2.0]], xll=-119.45), path)
        expected = read_grid(path)
        if binary:
            data = path.read_bytes()
            head, tail = data.split(b"\ndtype ", 1)
            path.write_bytes(head.decode().replace("\n", sep).encode() + b"\ndtype " + tail)
        else:
            write_text_grid(expected, path)
            path.write_bytes(path.read_text().replace("\n", sep).encode())
        assert_same_grid(read_grid(path), expected)

    def test_twin_of_another_size_is_ignored(self, tmp_path):
        path = self.write_pair(tmp_path)
        write_stale_twin(path, np.zeros(5).astype("<f8").tobytes())  # five values, six cells
        np.testing.assert_array_equal(read_grid(path).values[1], [1.5, 0.25, -2.0])

    @pytest.mark.parametrize("binary", [True, False])
    def test_values_are_writable(self, tmp_path, binary):
        path = tmp_path / "g.grid"
        write_grid(make_grid([[0.125, -9999.0, 3.0], [1.5, 0.25, -2.0]]), path)
        grid = read_grid(path) if binary else text_read(path)
        grid.values[0, 0] = 1.0
        assert grid.values.flags.writeable

    def test_scale_is_the_same_on_both_paths(self, tmp_path):
        path = tmp_path / "g.grid"
        write_grid(make_grid([[5000.0, -9999.0, 1234.0], [0.0, 17.0, -3.0]]), path)
        assert_same_grid(read_grid(path, scale=0.0001), text_read(path, scale=0.0001))
        assert read_grid(path, scale=0.0001).values[0, 1] == -9999.0

    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(BYTE_EDITS)
    def test_mutated_twin_reads_the_text(self, tmp_path, edits):
        """A byte-edited text grid reads as a grid or raises ``GridFormatError``
        naming it, whatever its stale ``.f8`` twin holds."""
        path = self.write_pair(tmp_path)
        path.write_bytes(mutate_bytes(path.read_bytes(), edits))
        try:
            read_grid(path)
        except GridFormatError as exc:
            assert str(path) in str(exc)


def rewrite(path, edit):
    """Replace the grid at ``path`` by ``edit(header, dtype line, payload)``."""
    data = path.read_bytes()
    cut = data.index(b"\ndtype ") + 1
    end = data.index(b"\n", cut) + 1
    path.write_bytes(edit(data[:cut], data[cut:end], data[end:]))


class TestBinaryGrid:
    """The one form: six header lines and a ``dtype`` line in ASCII, then the
    values in the narrowest exact type, row-major and little-endian."""

    @settings(max_examples=200, deadline=None)
    @given(GRID_ROWS)
    def test_round_trip_is_bit_exact_in_the_narrowest_type(self, rows):
        values = np.array(rows, dtype=np.float64)
        nrows, ncols = values.shape
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.grid"
            write_grid(make_grid(values, xll=-119.45, yll=35.42), path)
            back = read_grid(path)
            data = path.read_bytes()
            names = sorted(p.name for p in Path(tmp).iterdir())
        assert names == ["g.grid"]
        assert back.values.tobytes() == (values + 0.0).tobytes()
        dtype = narrowest_dtype(values)
        header = data[: data.index(b"\ndtype ") + 1] + f"dtype {dtype.str}\n".encode()
        assert data.startswith(header)
        row_bytes = ncols * dtype.itemsize
        assert len(data) == len(header) + nrows * row_bytes
        for r in range(nrows):
            at = len(header) + r * row_bytes
            assert data[at : at + row_bytes] == (values[r] + 0.0).astype(dtype).tobytes()

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda head, dtype, payload: head + dtype + payload[:-1], "payload holds 11 bytes"),
            (lambda head, dtype, payload: head + dtype + payload + b"\0\0", "holds 14 bytes"),
            (lambda head, dtype, payload: head + dtype, "payload holds 0 bytes"),
            (lambda head, dtype, payload: head + b"dtype <u2\n" + payload, "bad dtype line"),
            (lambda head, dtype, payload: head + b"dtype <i2" + payload, "bad dtype line"),
            (lambda head, dtype, payload: head + b"dtype\n" + payload, "bad dtype line"),
            (
                lambda head, dtype, payload: head.replace(b"ncols 3", b"ncols 2") + dtype + payload,
                "2 rows of 2 <i2 need 8",
            ),
            (
                lambda head, dtype, payload: head.replace(b"nrows 2", b"nrows 3") + dtype + payload,
                "3 rows of 3 <i2 need 18",
            ),
            (
                lambda head, dtype, payload: head + b"nrows 2\n" + dtype + payload,
                "between the header and its dtype line",
            ),
        ],
        ids=[
            "short", "long", "no-payload", "unknown-dtype", "unterminated-dtype", "dtype-no-type",
            "ncols-disagrees", "nrows-disagrees", "extra-header-line",
        ],
    )
    def test_payload_that_disagrees_with_the_header_is_rejected(self, tmp_path, edit, message):
        path = tmp_path / "g.grid"
        write_grid(make_grid([[1.0, -9999.0, 3.0], [4.0, 5.0, -6.0]]), path)
        rewrite(path, edit)
        with pytest.raises(GridFormatError, match=re.escape(f"{path}: ") + ".*" + message):
            read_grid(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_names_the_file(self, tmp_path, bad):
        path = tmp_path / "g.grid"
        write_grid(make_grid([[0.5, -9999.0]]), path)
        last = np.float64(bad).tobytes()
        rewrite(path, lambda head, dtype, payload: head + dtype + payload[:8] + last)
        with pytest.raises(GridFormatError, match=re.escape(str(path))):
            read_grid(path)

    @pytest.mark.parametrize("dtype", ["<i2", "<i4", "<f8"])
    @pytest.mark.parametrize("region", ["header", "dtype line", "payload"])
    @settings(max_examples=60, deadline=None)
    @given(edits=BYTE_EDITS)
    def test_byte_edits_read_or_name_the_file(self, dtype, region, edits):
        """Byte edits anywhere in a binary grid give a grid or a
        ``GridFormatError`` naming the file, never another exception."""
        values = {"<i2": [[7.0, -9999.0, 3.0]], "<i4": [[70000.0, -9999.0, 3.0]],
                  "<f8": [[0.125, -9999.0, 3.0]]}[dtype]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.grid"
            write_grid(make_grid(values * 2, xll=-119.45), path)
            assert split_grid(path)[1] == np.dtype(dtype)

            def edit(head, line, payload):
                parts = {"header": head, "dtype line": line, "payload": payload}
                parts[region] = mutate_bytes(parts[region], edits)
                return b"".join(parts.values())

            rewrite(path, edit)
            try:
                read_grid(path)
            except GridFormatError as exc:
                assert str(path) in str(exc)


def one_scene_stack(tmp_path, nir, qa):
    """A one-scene NIR SceneStack whose bands all hold ``nir`` under QA grid ``qa``."""
    date = datetime.date(2013, 4, 13)
    bands = {b: np.asarray(nir, dtype=float) for b in BAND_NAMES}
    scene = write_scene(tmp_path, date, bands, np.asarray(qa))
    return SceneStack.from_manifests([scene], [FeatureName.NIR])


def nir_observed(stack):
    """(NIR values, observed) planes of a one-scene stack."""
    matrix, observed, _ = stack.fill_cells(slice(None), slice(None))
    return matrix[..., 0, 0], observed[..., 0, 0]


#: Half the 1e-4 step of a stored integer reflectance, plus float rounding.
QUANTUM = 0.5e-4 + 1e-12
#: (numerator, denominator, a, b) of each index: when every band moves by at
#: most d, the numerator moves by at most a*d and the denominator by b*d.
INDEX_PARTS = {
    FeatureName.NDVI: (lambda b: b["NIR"] - b["Red"], lambda b: b["NIR"] + b["Red"], 2, 2),
    FeatureName.EVI: (
        lambda b: 2.5 * (b["NIR"] - b["Red"]),
        lambda b: b["NIR"] + 6.0 * b["Red"] - 7.0 * b["Blue"] + 1.0,
        5,
        14,
    ),
    FeatureName.ENDVI: (
        lambda b: b["NIR"] + b["Green"] - 2.0 * b["Blue"],
        lambda b: b["NIR"] + b["Green"] + 2.0 * b["Blue"],
        4,
        4,
    ),
    FeatureName.LSWI: (lambda b: b["NIR"] - b["SWIR1"], lambda b: b["NIR"] + b["SWIR1"], 2, 2),
}


def quantisation_bound(feature, bands):
    """Largest change of ``feature`` per (T, rows, cols) entry when each band of
    ``bands`` moves by at most QUANTUM: QUANTUM itself for a band, and
    |n/d - (n + dn)/(d + dd)| <= (a|d| + b|n|) QUANTUM / (|d| (|d| - b QUANTUM))
    for an index n/d."""
    if feature not in INDEX_PARTS:
        return np.full(bands["NIR"].shape, QUANTUM)
    num, den, a, b = INDEX_PARTS[feature]
    n, d = np.abs(num(bands)), np.abs(den(bands))
    assert (d > b * QUANTUM).all()
    return (a * d + b * n) * QUANTUM / (d * (d - b * QUANTUM))


class TestQuantisedScenes:
    """A float world and its twin stored as round(reflectance * 1e4) with
    ``scale=0.0001`` give the same observations and gap-filled stacks that
    differ by at most the quantisation bound. A gap-filled value is a convex
    combination of two observed ones, so a series' bound is the largest bound
    of its observed entries (plus 1e-12 for the interpolation's rounding)."""

    def test_fill_cells_within_the_quantisation_bound(self, tmp_path):
        rng = np.random.default_rng(11)
        shape, dates = (9, 9), [datetime.date(2013, 4, 1 + 6 * t) for t in range(5)]
        floats, stored, series = [], [], []
        for date in dates:
            bands = {b: rng.uniform(0.01, 0.6, shape) for b in BAND_NAMES}
            bands["Blue"] = rng.uniform(0.01, 0.1, shape)
            qa = (rng.random(shape) < 0.3).astype(float)
            floats.append(write_scene(tmp_path / "float", date, bands, qa))
            ints = {b: np.rint(v / 0.0001) for b, v in bands.items()}
            path = tmp_path / "int" / f"{date.isoformat()}.manifest"
            write_scene(path.parent, date, ints, qa)
            write_manifest(replace(read_manifest(path), scale=0.0001), path)
            stored.append(read_manifest(path))
            series.append(bands)
        bands = {b: np.stack([s[b] for s in series]) for b in BAND_NAMES}
        largest = 0.0
        for feature in FeatureName:
            float_stack = SceneStack.from_manifests(floats, [feature])
            int_stack = SceneStack.from_manifests(stored, [feature])
            a, a_obs, a_use = float_stack.fill_cells(slice(None), slice(None))
            b, b_obs, b_use = int_stack.fill_cells(slice(None), slice(None))
            assert (a_obs == b_obs).all() and (a_use == b_use).all()
            bound = np.moveaxis(quantisation_bound(feature, bands), 0, -1)[..., None]
            series_bound = np.where(a_obs, bound, 0.0).max(axis=-2, keepdims=True) + 1e-12
            assert (np.abs(a - b)[a_use] <= np.broadcast_to(series_bound, a.shape)[a_use]).all()
            largest = max(largest, np.abs(a - b)[a_use].max())
        assert 1e-5 < largest  # the stored step shows


class TestQaMask:
    """QA 0 is clear; any other code masks the cell in a SceneStack."""

    def test_all_clear_is_identity(self, tmp_path):
        nir = [[0.1, 0.2], [0.3, 0.4]]
        values, observed = nir_observed(one_scene_stack(tmp_path, nir, [[0, 0], [0, 0]]))
        np.testing.assert_array_equal(values, nir)
        assert observed.all()

    def test_all_masked(self, tmp_path):
        stack = one_scene_stack(tmp_path, [[0.1, 0.2]], [[1, 4]])
        _, observed, usable = stack.fill_cells(0, slice(None))
        assert not observed.any() and not usable.any()
        with pytest.raises(UnusablePixelError):
            stack.stack_at_cell(0, 1)

    def test_checkerboard_masks_half(self, tmp_path):
        qa = np.indices((4, 4)).sum(axis=0) % 2 * 4  # codes 0 and 4
        _, observed = nir_observed(one_scene_stack(tmp_path, np.full((4, 4), 0.5), qa))
        np.testing.assert_array_equal(observed, qa == 0)

    def test_idempotent(self, tmp_path):
        # a band already set to nodata under the mask reads the same as the raw band
        nir = np.array([[0.1, 0.2], [0.3, 0.4]])
        qa = np.array([[0, 1], [2, 0]])
        once = nir_observed(one_scene_stack(tmp_path / "raw", nir, qa))
        masked = np.where(qa == 0, nir, -9999.0)
        twice = nir_observed(one_scene_stack(tmp_path / "masked", masked, qa))
        np.testing.assert_array_equal(once[1], twice[1])
        np.testing.assert_array_equal(once[0][once[1]], twice[0][twice[1]])

    def test_georef_mismatch(self, tmp_path):
        scene = uniform_scene(tmp_path, datetime.date(2013, 4, 13), 0.1, shape=(1, 1))
        write_grid(make_grid([[0]], xll=1.0), scene.qa_path)
        with pytest.raises(GeoreferenceMismatchError):
            SceneStack.from_manifests([scene], [FeatureName.NIR])


class TestComputeIndex:
    def test_ndvi_worked_example(self):
        assert index_scalar(FeatureName.NDVI, NIR=0.5, Red=0.1) == pytest.approx(
            0.666667, abs=1e-6
        )

    def test_ndvi_symmetry_zero(self):
        assert index_scalar(FeatureName.NDVI, NIR=0.3, Red=0.3) == 0.0

    def test_evi_worked_example(self):
        assert index_scalar(FeatureName.EVI, NIR=0.5, Red=0.1, Blue=0.05) == pytest.approx(
            1.0 / 1.75, abs=1e-6
        )

    def test_endvi_worked_example(self):
        assert index_scalar(
            FeatureName.ENDVI, NIR=0.5, Green=0.1, Blue=0.1
        ) == pytest.approx(0.5, abs=1e-6)

    def test_lswi_worked_example(self):
        assert index_scalar(FeatureName.LSWI, NIR=0.4, SWIR1=0.2) == pytest.approx(
            0.333333, abs=1e-6
        )

    def test_nodata_propagates(self):
        nir = make_grid([[-9999.0, 0.5]])
        red = make_grid([[0.1, 0.1]])
        out = compute_index(FeatureName.NDVI, {"NIR": nir, "Red": red})
        assert out.values[0, 0] == out.nodata
        assert out.values[0, 1] != out.nodata

    def test_vanishing_denominator_is_nodata(self):
        out = compute_index(
            FeatureName.NDVI, {"NIR": grid_of(0.0), "Red": grid_of(0.0)}
        )
        assert out.values[0, 0] == out.nodata

    def test_missing_band(self):
        with pytest.raises(MissingBandError):
            compute_index(FeatureName.EVI, {"NIR": grid_of(0.5), "Red": grid_of(0.1)})

    def test_band_feature_not_computable(self):
        with pytest.raises(MissingBandError):
            compute_index(FeatureName.Red, {"Red": grid_of(0.1)})

    def test_matches_scalar_oracle_on_random_tuples(self):
        rng = np.random.default_rng(42)
        for _ in range(250):
            nir, red, blue, green, swir1 = rng.uniform(0.01, 1.0, size=5)
            got = {
                "NDVI": index_scalar(FeatureName.NDVI, NIR=nir, Red=red),
                "EVI": index_scalar(FeatureName.EVI, NIR=nir, Red=red, Blue=blue),
                "ENDVI": index_scalar(FeatureName.ENDVI, NIR=nir, Green=green, Blue=blue),
                "LSWI": index_scalar(FeatureName.LSWI, NIR=nir, SWIR1=swir1),
            }
            for kind, value in got.items():
                expected = oracle_index(kind, nir=nir, red=red, blue=blue, green=green, swir1=swir1)
                assert abs(value - expected) < 1e-12

    def test_bounded_indices_stay_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(250):
            nir, red, blue, green, swir1 = rng.uniform(0.0, 1.0, size=5)
            for kind, kwargs in (
                (FeatureName.NDVI, {"NIR": nir, "Red": red}),
                (FeatureName.ENDVI, {"NIR": nir, "Green": green, "Blue": blue}),
                (FeatureName.LSWI, {"NIR": nir, "SWIR1": swir1}),
            ):
                value = index_scalar(kind, **kwargs)
                if value != -9999.0:
                    assert -1.0 <= value <= 1.0


class TestSamplePixel:
    def test_cell_center(self):
        grid = make_grid([[1.0, 2.0], [3.0, 4.0]], xll=0.0, yll=0.0, cellsize=0.001)
        # row 0 is north: cell (0, 1) center is (0.0015, 0.0015)
        assert sample_pixel(grid, GeoPoint(0.0015, 0.0015)) == 2.0
        assert sample_pixel(grid, GeoPoint(0.0005, 0.0005)) == 3.0

    def test_just_inside_boundary(self):
        grid = make_grid([[1.0, 2.0], [3.0, 4.0]], cellsize=0.001)
        assert sample_pixel(grid, GeoPoint(1e-9, 1e-9)) == 3.0

    def test_outside_extent(self):
        grid = make_grid([[1.0]], cellsize=0.001)
        with pytest.raises(OutOfExtentError):
            sample_pixel(grid, GeoPoint(0.01, 0.0))


class TestManifests:
    def test_round_trip(self, tmp_path):
        manifest = SceneManifest(
            datetime.date(2013, 4, 13),
            {b: f"{b}.grid" for b in BAND_NAMES},
            "qa.grid",
        )
        write_manifest(manifest, tmp_path / "scene.manifest")
        back = read_manifest(tmp_path / "scene.manifest")
        assert back.scene_date == manifest.scene_date
        assert back.qa_path.endswith("qa.grid")

    def test_missing_band_rejected(self):
        with pytest.raises(DataValidationError):
            SceneManifest(datetime.date(2013, 4, 13), {"Red": "r.grid"}, "qa.grid")

    def test_bad_date_rejected(self, tmp_path):
        manifest = SceneManifest(
            datetime.date(2013, 4, 13), {b: f"{b}.grid" for b in BAND_NAMES}, "qa.grid"
        )
        path = tmp_path / "scene.manifest"
        write_manifest(manifest, path)
        path.write_text(path.read_text().replace("date=2013-04-13", "date=2013-13-06"))
        with pytest.raises(GridFormatError):
            read_manifest(path)

    def test_non_utf8_byte_rejected(self, tmp_path):
        path = tmp_path / "scene.manifest"
        path.write_bytes(b"date=2013-04-13\nqa=qa\xff.grid\n")
        with pytest.raises(GridFormatError):
            read_manifest(path)

    def manifest(self, scale=None):
        return SceneManifest(
            datetime.date(2013, 4, 13), {b: f"{b}.grid" for b in BAND_NAMES}, "qa.grid", scale
        )

    def test_no_scale_line_reads_as_no_scale(self, tmp_path):
        write_manifest(self.manifest(), tmp_path / "scene.manifest")
        assert "scale" not in (tmp_path / "scene.manifest").read_text()
        assert read_manifest(tmp_path / "scene.manifest").scale is None

    def test_scale_line_is_written_after_the_date(self, tmp_path):
        write_manifest(self.manifest(0.0001), tmp_path / "scene.manifest")
        lines = (tmp_path / "scene.manifest").read_text().splitlines()
        assert lines[:2] == ["date=2013-04-13", "scale=0.0001"]

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_scale_round_trips_exactly(self, scale):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "scene.manifest"
            write_manifest(self.manifest(scale), path)
            assert read_manifest(path).scale == scale

    @pytest.mark.parametrize(
        "value", ["1_0e-4", "\u0661e-4", "0", "-0.0001", "0.0", "inf", "nan", "1e999", "", " 1"]
    )
    def test_scale_that_is_not_a_positive_ascii_number_rejected(self, tmp_path, value):
        path = tmp_path / "scene.manifest"
        write_manifest(self.manifest(), path)
        path.write_text(path.read_text() + f"scale={value}\n")
        with pytest.raises(GridFormatError, match=f"{path}: line 9: scale"):
            read_manifest(path)

    @pytest.mark.parametrize("key", ["date", "band.NIR", "qa", "scale"])
    def test_repeated_key_rejected(self, tmp_path, key):
        """Two lines for one key: neither is read over the other."""
        path = tmp_path / "scene.manifest"
        write_manifest(self.manifest(0.0001), path)
        lines = path.read_text().splitlines()
        first = next(n for n, line in enumerate(lines, start=1) if line.startswith(key + "="))
        path.write_text("\n".join(lines + [lines[first - 1]]) + "\n")
        message = f"{path}: line {len(lines) + 1}: {key} already set on line {first}"
        with pytest.raises(GridFormatError, match=re.escape(message)):
            read_manifest(path)

    @pytest.mark.parametrize("value", ["20130413", "2013-W15-6", "2013-04", "2013-04-13T00"])
    def test_date_other_than_yyyy_mm_dd_rejected(self, tmp_path, value):
        """``date.fromisoformat`` reads the ISO basic and week forms as 2013-04-13."""
        path = tmp_path / "scene.manifest"
        write_manifest(self.manifest(), path)
        path.write_text(path.read_text().replace("date=2013-04-13", f"date={value}"))
        with pytest.raises(GridFormatError, match=f"{path}: line 1: bad date"):
            read_manifest(path)

    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(BYTE_EDITS)
    def test_mutated_manifest_raises_only_data_errors(self, tmp_path, edits):
        manifest = SceneManifest(
            datetime.date(2013, 4, 13), {b: f"{b}.grid" for b in BAND_NAMES}, "qa.grid"
        )
        path = tmp_path / "scene.manifest"
        write_manifest(manifest, path)
        path.write_bytes(mutate_bytes(path.read_bytes(), edits))
        try:
            read_manifest(path)
        except DataValidationError:
            pass


def uniform_scene(tmp_path, date, value, qa=0, shape=(2, 2)):
    bands = {b: np.full(shape, value) for b in BAND_NAMES}
    return write_scene(tmp_path / date.isoformat(), date, bands, np.full(shape, qa))


def stack_at_point(scenes, features):
    """Gap-filled (T, F) matrix and observed mask of the cell holding (0.001, 0.001)."""
    stack = SceneStack.from_manifests(scenes, features)
    row, col = stack.template.cell_index(GeoPoint(0.001, 0.001))
    return stack.stack_at_cell(row, col)


class TestFeatureStack:
    """The gap-filled (T, F) feature stack of one cell, read through a SceneStack."""

    def dates(self, n):
        return [datetime.date(2013, 4, 1) + datetime.timedelta(days=16 * i) for i in range(n)]

    def test_no_gaps(self, tmp_path):
        dates = self.dates(3)
        scenes = [uniform_scene(tmp_path, d, 0.2 + 0.1 * i) for i, d in enumerate(dates)]
        matrix, observed = stack_at_point(scenes, [FeatureName.NIR, FeatureName.NDVI])
        assert observed.all()
        np.testing.assert_allclose(matrix[:, 0], [0.2, 0.3, 0.4])
        np.testing.assert_allclose(matrix[:, 1], 0.0, atol=1e-12)  # NIR == Red

    def test_middle_gap_linear_interpolation(self, tmp_path):
        dates = self.dates(3)
        scenes = [
            uniform_scene(tmp_path, dates[0], 0.2),
            uniform_scene(tmp_path, dates[1], 0.9, qa=1),  # fully cloudy
            uniform_scene(tmp_path, dates[2], 0.4),
        ]
        matrix, observed = stack_at_point(scenes, [FeatureName.NIR])
        assert not observed[1, 0]
        assert matrix[1, 0] == pytest.approx(0.3)

    def test_boundary_gap_nearest(self, tmp_path):
        dates = self.dates(3)
        scenes = [
            uniform_scene(tmp_path, dates[0], 0.9, qa=1),
            uniform_scene(tmp_path, dates[1], 0.25),
            uniform_scene(tmp_path, dates[2], 0.5),
        ]
        matrix, _ = stack_at_point(scenes, [FeatureName.NIR])
        assert matrix[0, 0] == pytest.approx(0.25)

    def test_gap_filling_never_touches_valid_cells(self, tmp_path):
        dates = self.dates(4)
        scenes = [
            uniform_scene(tmp_path, dates[0], 0.2),
            uniform_scene(tmp_path, dates[1], 0.9, qa=1),
            uniform_scene(tmp_path, dates[2], 0.35),
            uniform_scene(tmp_path, dates[3], 0.5),
        ]
        matrix, observed = stack_at_point(scenes, [FeatureName.NIR])
        np.testing.assert_array_equal(matrix[observed[:, 0], 0], [0.2, 0.35, 0.5])

    def test_all_masked_is_unusable(self, tmp_path):
        dates = self.dates(3)
        scenes = [uniform_scene(tmp_path, d, 0.5, qa=1) for d in dates]
        with pytest.raises(UnusablePixelError):
            stack_at_point(scenes, [FeatureName.NIR])

    def test_nodata_in_unused_band_keeps_feature_observed(self, tmp_path):
        dates = self.dates(2)
        scenes = []
        for date in dates:
            bands = {b: np.full((1, 2), 0.3) for b in BAND_NAMES}
            bands["Blue"][0, 0] = -9999.0
            scenes.append(write_scene(tmp_path / date.isoformat(), date, bands, np.zeros((1, 2))))
        stack = SceneStack.from_manifests(scenes, [FeatureName.NDVI])
        _, observed, usable = stack.fill_cells(0, slice(None))
        assert observed.all() and usable.all()
        stack = SceneStack.from_manifests(scenes, [FeatureName.EVI])
        _, observed, usable = stack.fill_cells(0, slice(None))
        assert not observed[0].any() and observed[1].all()
        assert usable.tolist() == [False, True]

    def test_unsorted_scenes_rejected(self, tmp_path):
        dates = self.dates(2)
        scenes = [uniform_scene(tmp_path, d, 0.5) for d in dates]
        with pytest.raises(DataValidationError):
            SceneStack.from_manifests(list(reversed(scenes)), [FeatureName.NIR])

    def test_duplicate_dates_rejected(self, tmp_path):
        date = self.dates(1)[0]
        scenes = [uniform_scene(tmp_path / str(i), date, 0.5) for i in range(2)]
        with pytest.raises(DataValidationError):
            SceneStack.from_manifests(scenes, [FeatureName.NIR])

    def test_empty_feature_list_rejected(self, tmp_path):
        scenes = [uniform_scene(tmp_path, d, 0.5) for d in self.dates(3)]
        with pytest.raises(DataValidationError):
            SceneStack.from_manifests(scenes, [])

    def test_repeated_feature_rejected_naming_it(self, tmp_path):
        scenes = [uniform_scene(tmp_path, d, 0.5) for d in self.dates(2)]
        features = [FeatureName.EVI, FeatureName.NIR, FeatureName.EVI]
        with pytest.raises(DataValidationError, match="feature EVI is listed twice"):
            SceneStack.from_manifests(scenes, features)

    def test_band_no_feature_needs_is_not_read(self, tmp_path):
        """An NDVI stack reads NIR and Red only, so a corrupt Green grid
        does not stop it from building."""
        scenes = [uniform_scene(tmp_path, d, 0.5) for d in self.dates(2)]
        Path(scenes[1].band_paths["Green"]).write_text("not a grid\n")
        stack = SceneStack.from_manifests(scenes, [FeatureName.NDVI])
        _, observed, usable = stack.fill_cells(0, 0)
        assert observed.all() and usable

    def test_corrupt_band_a_feature_needs_fails_the_build(self, tmp_path):
        scenes = [uniform_scene(tmp_path, d, 0.5) for d in self.dates(2)]
        nir = scenes[1].band_paths["NIR"]
        Path(nir).write_text("not a grid\n")
        with pytest.raises(GridFormatError) as err:
            SceneStack.from_manifests(scenes, [FeatureName.NDVI])
        assert nir in str(err.value)


def random_world(directory, n_dates, shape=(7, 9), scale=None, seed=3):
    """Scenes of random reflectance with nodata in every band and random QA
    codes. With ``scale`` the bands are stored as ``round(value / scale)``
    and the manifests state the scale. A few cells have NIR = Red = 0, so
    NDVI's denominator vanishes there."""
    rng = np.random.default_rng(seed)
    scenes = []
    for t in range(n_dates):
        date = datetime.date(2013, 4, 1) + datetime.timedelta(days=8 * t)
        bands = {b: rng.uniform(0.01, 0.6, shape) for b in BAND_NAMES}
        bands["NIR"].flat[t::11] = bands["Red"].flat[t::11] = 0.0
        if scale is not None:
            bands = {b: np.rint(v / scale) for b, v in bands.items()}
        for values in bands.values():
            values[rng.random(shape) < 0.1] = -9999.0
        qa = rng.choice([0.0, 0.0, 0.0, 1.0, 2.0, 4.0], size=shape)
        path = write_scene(directory, date, bands, qa)
        manifest = directory / f"{date.isoformat()}.manifest"
        write_manifest(replace(read_manifest(manifest), scale=scale), manifest)
        scenes.append(replace(path, scale=scale))
    return scenes


def oracle_planes(scenes, feature):
    """(values, observed) cubes of one feature, read date by date as whole
    grids through ``read_grid`` and ``compute_index``: values are nodata
    wherever the feature is not observed."""
    values, observed = [], []
    for scene in scenes:
        clear = read_grid(scene.qa_path).values == 0
        bands = {b: read_grid(scene.band_paths[b], scale=scene.scale) for b in BAND_NAMES}
        if feature.value in BAND_NAMES:
            grid = bands[feature.value]
        else:
            grid = compute_index(feature, bands)
        valid = grid.valid_mask() & clear
        values.append(np.where(valid, grid.values, grid.nodata))
        observed.append(valid)
    return np.stack(values), np.stack(observed)


class TestStackBuild:
    """``from_manifests`` builds its cubes one date at a time: the same bytes
    as whole grids give, each grid read once, and no whole-campaign band
    cube held while it builds."""

    @pytest.mark.parametrize("scale", [None, 0.0001])
    def test_cubes_equal_the_whole_grid_oracle_byte_for_byte(self, tmp_path, scale):
        scenes = random_world(tmp_path, 4, scale=scale)
        stack = SceneStack.from_manifests(scenes, list(FeatureName))
        assert stack.template.values.tobytes() == read_grid(scenes[0].qa_path).values.tobytes()
        for feature in FeatureName:
            values, observed = stack.feature_plane(feature)
            expected_values, expected_observed = oracle_planes(scenes, feature)
            assert values.dtype == np.float64 and observed.dtype == bool
            assert observed.tobytes() == expected_observed.tobytes(), feature
            assert np.where(observed, values, -9999.0).tobytes() == expected_values.tobytes()
            if feature.value in BAND_NAMES:  # a band's cube is the grids as read
                grids = [read_grid(s.band_paths[feature.value], scale=scale) for s in scenes]
                assert values.tobytes() == np.stack([g.values for g in grids]).tobytes()
            alone = SceneStack.from_manifests(scenes, [feature]).feature_plane(feature)
            assert alone[0].tobytes() == values.tobytes()
            assert alone[1].tobytes() == observed.tobytes()
        nodata, masked = stack.feature_plane(FeatureName.NIR)[1], stack.feature_plane(
            FeatureName.NDVI
        )[1]
        assert not nodata.all() and not masked.all()  # the world exercises both masks

    def test_each_grid_is_read_once(self, tmp_path):
        scenes = random_world(tmp_path, 3)
        with mock.patch.object(rasterstack, "read_grid", wraps=rasterstack.read_grid) as spy:
            SceneStack.from_manifests(scenes, [FeatureName.EVI, FeatureName.NIR, FeatureName.SWIR2])
        paths = [str(c.args[0]) for c in spy.call_args_list]
        expected = [
            path
            for s in scenes
            for path in (s.qa_path, *(s.band_paths[b] for b in ("NIR", "Red", "Blue", "SWIR2")))
        ]
        assert paths == expected  # date by date, the QA grid first

    def test_traced_peak_stays_below_twice_the_kept_cubes(self, tmp_path):
        """Holding every date of each band, or whole-cube index temporaries,
        would need about three times the kept cubes on this world."""
        scenes = random_world(tmp_path, 12, shape=(64, 64))
        features = [FeatureName.EVI, FeatureName.SWIR2]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stack = SceneStack.from_manifests(scenes, features)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for f in features for a in stack.feature_plane(f))
        assert peak < 2 * kept, (peak, kept)

    def test_misregistered_qa_on_a_later_date_raises(self, tmp_path):
        scenes = random_world(tmp_path, 3)
        write_grid(make_grid(np.zeros((7, 9)), xll=1.0), scenes[2].qa_path)
        with pytest.raises(GeoreferenceMismatchError, match="not co-registered"):
            SceneStack.from_manifests(scenes, [FeatureName.NIR])

    def test_misregistered_band_on_a_later_date_raises_naming_it(self, tmp_path):
        scenes = random_world(tmp_path, 3)
        write_grid(make_grid(np.zeros((7, 9)), cellsize=0.002), scenes[1].band_paths["Red"])
        with pytest.raises(GeoreferenceMismatchError, match=f"band Red of {scenes[1].scene_date}"):
            SceneStack.from_manifests(scenes, [FeatureName.NDVI])

    @pytest.mark.parametrize("first", ["qa", "band"])
    def test_first_fault_in_date_order_is_reported(self, tmp_path, first):
        """A corrupt NIR grid and a misregistered QA grid on different dates:
        the earlier date's fault is the one reported."""
        scenes = random_world(tmp_path, 3)
        qa_date, band_date = (1, 2) if first == "qa" else (2, 1)
        write_grid(make_grid(np.zeros((7, 9)), xll=1.0), scenes[qa_date].qa_path)
        nir = scenes[band_date].band_paths["NIR"]
        Path(nir).write_text("not a grid\n")
        if first == "qa":
            with pytest.raises(GeoreferenceMismatchError):
                SceneStack.from_manifests(scenes, [FeatureName.NDVI])
        else:
            with pytest.raises(GridFormatError, match=re.escape(nir)):
                SceneStack.from_manifests(scenes, [FeatureName.NDVI])


@st.composite
def masked_series(draw):
    """Strictly increasing day numbers plus NIR values and QA flags on a 2 x 3 grid."""
    n = draw(st.integers(1, 8))
    days = np.cumsum(draw(st.lists(st.integers(1, 60), min_size=n, max_size=n))).tolist()
    unit = st.floats(0.0, 1.0, allow_nan=False, width=64)
    values = np.array(draw(st.lists(unit, min_size=6 * n, max_size=6 * n))).reshape(n, 2, 3)
    flags = draw(st.lists(st.booleans(), min_size=6 * n, max_size=6 * n))
    return days, values, np.array(flags).reshape(n, 2, 3)


class TestGapFillOracle:
    """The whole-block gap fill against per-series ``np.interp``."""

    @settings(max_examples=60, deadline=None)
    @given(masked_series())
    def test_matches_interp_per_series(self, case):
        days, nir, clear = case
        start = datetime.date(2013, 1, 1)
        with tempfile.TemporaryDirectory() as tmp:
            scenes = []
            for t, day in enumerate(days):
                date = start + datetime.timedelta(days=day)
                bands = {b: np.full((2, 3), 0.5) for b in BAND_NAMES}
                bands["NIR"] = nir[t]
                qa = np.where(clear[t], 0.0, 1.0)
                scenes.append(write_scene(Path(tmp) / str(t), date, bands, qa))
            stack = SceneStack.from_manifests(scenes, [FeatureName.NIR])
            matrix, observed, usable = stack.fill_cells(slice(None), slice(None))
        x = np.array([start.toordinal() + d for d in days], dtype=np.float64)
        np.testing.assert_array_equal(observed[..., 0], np.moveaxis(clear, 0, -1))
        np.testing.assert_array_equal(usable, clear.any(axis=0))
        for r in range(2):
            for c in range(3):
                ok, series, got = clear[:, r, c], nir[:, r, c], matrix[r, c, :, 0]
                if not ok.any():
                    continue
                expected = np.interp(x, x[ok], series[ok])
                np.testing.assert_array_equal(got, expected)
                np.testing.assert_array_equal(got[ok], series[ok])  # observed untouched
                first, last = np.flatnonzero(ok)[[0, -1]]
                assert (got[:first] == series[first]).all()  # ends hold the nearest
                assert (got[last:] == series[last]).all()
