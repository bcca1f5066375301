"""Every reader of numbers and dates follows the ASCII grammar of ``errors``.

Each case writes a file with the package's own writer, checks that it
reads back unchanged, then spoils one numeric or date field with a change
Python's ``int``/``float`` would forgive (a digit of another script, a
``_`` between digits, leading padding): the reader must raise its
documented error, naming the file (and the line, for line-based formats).
"""

import contextlib
import datetime
import io
import re
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import spoiled
from streetcrop import neuralnet as nn
from streetcrop.cli import run_command
from streetcrop.errors import DataValidationError
from streetcrop.geocore import GeoPoint, Heading
from streetcrop.imageclassifier import ILLINOIS, LabeledImage, read_catalog, write_catalog
from streetcrop.imagery import (
    FixtureIndex,
    ImageDecodeError,
    decode_image,
    encode_image,
    write_fixture,
)
from streetcrop.rasterstack import (
    BAND_NAMES,
    GridFormatError,
    RasterGrid,
    SceneManifest,
    read_grid,
    read_manifest,
    write_grid,
    write_manifest,
)
from streetcrop.refgen import ReferencePoint, read_reference_csv, write_reference_csv

POINT = GeoPoint(0.001234, -0.000679)  # as a fixture name rounds it
DATE = datetime.date(2013, 7, 1)


def csv_spans(text, columns):
    """(start, end) of every non-empty data cell of ``columns`` in a CSV text
    without quoting."""
    lines = list(re.finditer("(?m)^.+$", text))
    header = lines[0][0].split(",")
    spans = []
    for line in lines[1:]:
        commas = [-1] + [i for i, c in enumerate(line[0]) if c == ","] + [len(line[0])]
        for k in map(header.index, columns):
            start, end = line.start() + commas[k] + 1, line.start() + commas[k + 1]
            if end > start:
                spans.append((start, end))
    return spans


def value_span(text, key):
    return re.search(f"(?m)^{key}=(.*)$", text).span(1)


def fixture_dir(d):
    write_fixture(d / "fixtures", POINT, Heading.EAST, np.zeros((2, 3, 3), dtype=np.uint8), DATE)
    return d / "fixtures"


def fetch(config, out):
    """``fetch``'s exit code; a data error raises with the CLI's message."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run_command(["fetch", "--config", str(config), "--out", str(out)])
    if code == 2:
        raise DataValidationError(err.getvalue())
    assert code == 0, err.getvalue()
    return code


class Written(NamedTuple):
    path: Path  # written by the package
    spans: list  # (start, end) of each numeric or date field in its bytes
    read: Callable  # path -> what the reader returns
    value: object  # what the reader returns for the file as written
    error: type  # the reader's documented error
    where: Callable | None = None  # (path, line) -> text its message holds


def csv_line(path, line):
    return f"{path}:{line}"


def grid_csv_case(d):
    config = d / "run.cfg"
    config.write_text(
        "region = illinois\nseed = 1\nbbox = 0.0,0.0006,0.0,0.0006\n"
        f"paths.grid_csv = {d / 'grid.csv'}\npaths.fixtures = {fixture_dir(d)}\n"
    )
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_command(["grid", "--config", str(config), "--out", str(d)]) == 0
    path = d / "grid.csv"
    spans = csv_spans(path.read_text(), ["lat", "lon"])
    return Written(path, spans, lambda p: fetch(config, d), 0, DataValidationError, csv_line)


def catalog_case(d):
    rec = FixtureIndex(fixture_dir(d)).record(0)
    path = d / "catalog.csv"
    write_catalog([LabeledImage(rec, 1, 0.875)], ILLINOIS, path)

    def read(p):
        return [
            (li.record.id, li.record.capture_point, li.record.heading, li.record.capture_date,
             li.label, li.confidence)
            for li in read_catalog(p, ILLINOIS)
        ]

    written = [(rec.id, POINT, Heading.EAST, DATE, 1, 0.875)]
    spans = csv_spans(path.read_text(), ["confidence", "lat", "lon", "heading", "date"])
    return Written(path, spans, read, written, DataValidationError, csv_line)


def refs_csv_case(d):
    points = [ReferencePoint(POINT, 2, "img_7", 45.25, 1, 0.625),
              ReferencePoint(GeoPoint(-0.25, 0.5), 0, "img_8", 30.0, 0)]
    path = d / "refs.csv"
    write_reference_csv(points, ILLINOIS, path)
    spans = csv_spans(
        path.read_text(), ["lat", "lon", "confidence", "shift_m", "extra_steps"]
    )
    read = lambda p: read_reference_csv(p, ILLINOIS)  # noqa: E731
    return Written(path, spans, read, points, DataValidationError, csv_line)


def manifest_case(d):
    bands = {b: str(d / f"{b}.grid") for b in BAND_NAMES}
    manifest = SceneManifest(datetime.date(2013, 4, 13), bands, str(d / "qa.grid"), 0.0001)
    path = d / "scene.manifest"
    write_manifest(manifest, path)
    text = path.read_text()
    spans = [value_span(text, "date"), value_span(text, "scale")]
    where = lambda p, line: f"{p}: line {line}"  # noqa: E731
    return Written(path, spans, read_manifest, manifest, GridFormatError, where)


def grid_header_case(d):
    """The six header values of a grid, whose payload follows in binary."""
    path = d / "g.grid"
    write_grid(RasterGrid(3, 2, -119.45, 35.42, 0.001, -9999.0, np.arange(6.0).reshape(2, 3)), path)

    def read(p):
        g = read_grid(p)
        return g.ncols, g.nrows, g.xll, g.yll, g.cellsize, g.nodata, g.values.tolist()

    header = path.read_bytes().split(b"\ndtype ")[0].decode("ascii")
    spans = [m.span(1) for m in re.finditer(r"(?m)^[A-Za-z_]+ (.+)$", header)]
    assert len(spans) == 6
    written = (3, 2, -119.45, 35.42, 0.001, -9999.0, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    where = lambda p, line: f"{p}: line {line}"  # noqa: E731
    return Written(path, spans, read, written, GridFormatError, where)


def sidecar_case(d):
    """The date token of a fixture's ``# date=`` header comment (the date a
    ``.meta`` sidecar held before it moved into the header)."""
    fixtures = fixture_dir(d)
    path = next(fixtures.glob("*.ppm"))

    def read(p):
        return FixtureIndex(fixtures).record(0).capture_date

    header = path.read_bytes().split(b"\n255\n", 1)[0].decode("ascii")
    spans = [value_span(header, "# date")]
    return Written(path, spans, read, DATE, ImageDecodeError, lambda p, line: str(p))


def model_case(d):
    spec = nn.NetworkSpec(
        (nn.Conv2D(3, 2, 3, same_padding=True), nn.ReLU(), nn.MaxPool(2), nn.Dropout(0.25),
         nn.Dense(5), nn.ReLU(), nn.Dense(2), nn.Softmax()),
        (2, 6, 4),
        2,
    )
    path = d / "model.rtnn"
    nn.serialize_model(nn.build_network(spec, seed=0), path)
    header = path.read_bytes().split(b"\nweights ")[0].decode("ascii") + "\nweights "
    count = path.read_bytes()[len(header):].split(b"\n")[0].decode("ascii")
    text = header + count
    spans = []
    for m in re.finditer(r"(?m)^(input|classes|layer [a-z0-9]+|weights)((?: [^ \n]+)+)$", text):
        spans += [(f.start() + m.start(2), f.end() + m.start(2))
                  for f in re.finditer(r"[^ ]+", m[2])]

    def read(p):
        return nn.deserialize_model(p).spec

    return Written(path, spans, read, spec, nn.SerializationError, lambda p, line: str(p))


def ppm_case(d):
    path = d / "image.ppm"
    pixels = np.arange(18, dtype=np.uint8).reshape(2, 3, 3)
    path.write_bytes(encode_image(pixels))
    text = path.read_bytes()[:11].decode("ascii")
    assert text == "P6\n3 2\n255\n"
    spans = [(3, 4), (5, 6), (7, 10)]

    def read(p):
        return decode_image(p.read_bytes())[0].tolist()

    return Written(path, spans, read, pixels.tolist(), ImageDecodeError)


CASES = {
    "grid.csv": grid_csv_case,
    "catalog": catalog_case,
    "refs.csv": refs_csv_case,
    "manifest": manifest_case,
    "grid header": grid_header_case,
    "sidecar": sidecar_case,
    "model header": model_case,
    "ppm header": ppm_case,
}


@pytest.mark.parametrize("case", list(CASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_reader_rejects_what_python_would_coerce(case, data):
    with tempfile.TemporaryDirectory() as tmp:
        w = CASES[case](Path(tmp))
        assert w.read(w.path) == w.value
        raw = w.path.read_bytes()
        start, end = data.draw(st.sampled_from(w.spans))
        # these headers' fields are separated by blanks, so padding is no change there
        pad = case not in ("ppm header", "grid header")
        token = data.draw(spoiled(raw[start:end].decode("ascii"), pad=pad))
        w.path.write_bytes(raw[:start] + token.encode() + raw[end:])
        with pytest.raises(w.error) as info:
            w.read(w.path)
        if w.where is not None:
            assert w.where(w.path, raw[:start].count(b"\n") + 1) in str(info.value)
