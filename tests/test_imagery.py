import datetime
import http.client
import io
import os
import sys
import tempfile
import types
import urllib.error

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BYTE_EDITS, mutate_bytes

from streetcrop.errors import DataValidationError
from streetcrop.geocore import METERS_PER_DEGREE, GeoPoint, Heading, geo_distance, offset_point
from streetcrop.imagery import (
    FIXTURE_TOLERANCE_M,
    FixtureIndex,
    FixtureNotFoundError,
    ImageDecodeError,
    StreetImageRecord,
    StreetRequest,
    TransportError,
    _decode_any,
    build_street_request,
    decode_image,
    encode_image,
    fetch_street_image,
    fixture_filename,
    write_fixture,
)


def solid(fill, shape=(2, 2, 3)):
    """8-bit pixels all of value ``fill``."""
    return np.full(shape, fill, dtype=np.uint8)


class TestBuildRequest:
    def test_parameter_echo(self):
        url = build_street_request(GeoPoint(35.5, -119.3), Heading.NORTH, (640, 640))
        assert "heading=0" in url
        assert "size=640x640" in url
        assert "location=35.5,-119.3" in url

    def test_west_maps_to_270(self):
        url = build_street_request(GeoPoint(35.5, -119.3), Heading.WEST, (640, 640))
        assert "heading=270" in url

    def test_deterministic(self):
        args = (GeoPoint(1.25, 103.8), Heading.SOUTH, (320, 240))
        assert build_street_request(*args) == build_street_request(*args)

    def test_size_bounds(self):
        with pytest.raises(DataValidationError):
            build_street_request(GeoPoint(0, 0), Heading.NORTH, (641, 640))


def unit_values(data):
    """The float oracle: a PPM's 8-bit pixels scaled to unit range."""
    return decode_image(data)[0] / 255.0


class TestDecode:
    def test_single_white_pixel(self):
        data = b"P6\n1 1\n255\n\xff\xff\xff"
        values = unit_values(data)
        assert values.shape == (1, 1, 3)
        np.testing.assert_array_equal(values, 1.0)

    def test_black_then_white(self):
        data = b"P6\n2 1\n255\n\x00\x00\x00\xff\xff\xff"
        values = unit_values(data)
        np.testing.assert_array_equal(values[0, 0], [0, 0, 0])
        np.testing.assert_array_equal(values[0, 1], [1, 1, 1])

    def test_short_payload(self):
        data = b"P6\n2 2\n255\n" + b"\x00" * 9  # 4 pixels declared, 3 supplied
        with pytest.raises(ImageDecodeError):
            decode_image(data)

    def test_bad_magic(self):
        with pytest.raises(ImageDecodeError):
            decode_image(b"P5\n1 1\n255\n\x00")

    def test_unsupported_maxval(self):
        with pytest.raises(ImageDecodeError):
            decode_image(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")

    def test_comments_in_header(self):
        data = b"P6\n# a comment\n1 1\n255\n\x80\x80\x80"
        assert unit_values(data)[0, 0, 0] == pytest.approx(128 / 255)


@settings(max_examples=50, deadline=None)
@given(
    h=st.integers(1, 8),
    w=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
    date=st.none() | st.dates(),
)
def test_encode_decode_round_trip(h, w, seed, date):
    """``decode_image`` gives back the pixels exactly, and the date to its month."""
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    back, back_date = decode_image(encode_image(pixels, date))
    assert back.dtype == np.uint8 and back.tolist() == pixels.tolist()
    assert back_date == (None if date is None else date.replace(day=1))


@settings(max_examples=150, deadline=None)
@given(BYTE_EDITS)
def test_mutated_ppm_raises_only_decode_errors(edits):
    pixels = np.random.default_rng(3).integers(0, 256, size=(3, 4, 3), dtype=np.uint8)
    try:
        decode_image(mutate_bytes(encode_image(pixels), edits))
    except ImageDecodeError:
        pass


#: Pixels that are not one street image's form: float, 2-d, 4-channel, empty.
NOT_8_BIT_RGB = [
    np.zeros((2, 2, 3)),
    np.zeros((2, 2), dtype=np.uint8),
    np.zeros((2, 2, 4), dtype=np.uint8),
    np.zeros((0, 2, 3), dtype=np.uint8),
    np.zeros((2, 0, 3), dtype=np.uint8),
]


@pytest.mark.parametrize("pixels", NOT_8_BIT_RGB)
def test_encode_takes_only_8_bit_rgb(pixels):
    """``encode_image`` writes nothing that ``decode_image`` would reject."""
    with pytest.raises(DataValidationError, match="must be \\(h, w, 3\\) uint8 with h, w >= 1"):
        encode_image(pixels)


class TestStreetImageRecord:
    @pytest.mark.parametrize("pixels", NOT_8_BIT_RGB)
    def test_pixels_must_be_8_bit_rgb(self, pixels):
        with pytest.raises(DataValidationError, match="must be \\(h, w, 3\\) uint8"):
            StreetImageRecord("img", GeoPoint(0, 0), Heading.NORTH, pixels)

    def test_needs_pixels_or_a_file(self):
        with pytest.raises(DataValidationError, match="neither pixels nor a file"):
            StreetImageRecord("img", GeoPoint(0, 0), Heading.NORTH)

    def test_records_compare_and_hash_on_every_field_but_pixels(self, tmp_path):
        def in_memory(id, fill):
            pixels = np.full((2, 2, 3), fill, dtype=np.uint8)
            return StreetImageRecord(id, GeoPoint(1, 2), Heading.EAST, pixels)

        def file_backed(name):
            return StreetImageRecord(
                name, GeoPoint(1, 2), Heading.EAST, path=tmp_path / f"{name}.ppm",
                capture_date=datetime.date(2013, 7, 1),
            )

        a, b = in_memory("a", 10), in_memory("b", 10)
        c, d = file_backed("c"), file_backed("d")
        assert a == in_memory("a", 200)  # other pixels, same record
        assert a != b and c != d and a != c
        assert c == file_backed("c") and hash(c) == hash(file_backed("c"))
        records = {a, b, c, d, in_memory("a", 99), file_backed("c")}
        assert len(records) == 4 and in_memory("b", 0) in records and file_backed("d") in records
        labels = {a: "crop", b: "other", c: "crop", d: "other"}
        assert labels[in_memory("b", 1)] == "other" and labels[file_backed("c")] == "crop"
        assert c not in [a, b, d]


class TestFixtures:
    def make_fixture(self, directory, point, heading, fill=128, date=None):
        return write_fixture(directory, point, heading, solid(fill, (4, 4, 3)), date=date)

    def test_exact_lookup(self, tmp_path):
        p = GeoPoint(35.5, -119.3)
        self.make_fixture(tmp_path, p, Heading.EAST, date=datetime.date(2012, 7, 1))
        rec = fetch_street_image(StreetRequest(p, Heading.EAST), tmp_path)
        assert rec.id == fixture_filename(p, Heading.EAST)[: -len(".ppm")]
        assert rec.capture_date == datetime.date(2012, 7, 1)
        assert rec.read_pixels()[0, 0, 0] == 128

    def test_within_tolerance(self, tmp_path):
        p = GeoPoint(35.5, -119.3)
        self.make_fixture(tmp_path, p, Heading.NORTH)
        near = offset_point(p, Heading.EAST, 4.0)
        rec = fetch_street_image(StreetRequest(near, Heading.NORTH), tmp_path)
        assert rec.capture_point.lat_deg == pytest.approx(p.lat_deg, abs=1e-6)

    def test_six_meters_away_not_found(self, tmp_path):
        p = GeoPoint(35.5, -119.3)
        self.make_fixture(tmp_path, p, Heading.NORTH)
        far = offset_point(p, Heading.EAST, 6.0)
        with pytest.raises(FixtureNotFoundError):
            fetch_street_image(StreetRequest(far, Heading.NORTH), tmp_path)

    def test_heading_must_match(self, tmp_path):
        p = GeoPoint(35.5, -119.3)
        self.make_fixture(tmp_path, p, Heading.NORTH)
        with pytest.raises(FixtureNotFoundError):
            fetch_street_image(StreetRequest(p, Heading.SOUTH), tmp_path)

    def test_truncated_file_is_decode_error(self, tmp_path):
        p = GeoPoint(35.5, -119.3)
        path = self.make_fixture(tmp_path, p, Heading.NORTH)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ImageDecodeError):
            fetch_street_image(StreetRequest(p, Heading.NORTH), tmp_path)

    def test_nearest_wins(self, tmp_path):
        p = GeoPoint(35.5, -119.3)
        near = offset_point(p, Heading.EAST, 1.0)
        far = offset_point(p, Heading.EAST, 4.0)
        self.make_fixture(tmp_path, near, Heading.NORTH, fill=64)
        self.make_fixture(tmp_path, far, Heading.NORTH, fill=191)
        rec = fetch_street_image(StreetRequest(p, Heading.NORTH), tmp_path)
        assert rec.read_pixels()[0, 0, 0] == 64

    def test_equidistant_tie_breaks_on_filename(self, tmp_path):
        """The fixture 1e-6° west sits in an earlier bucket than the one 1e-6° east."""
        p = GeoPoint(0.0, -0.0002)
        for lon in (-0.000201, -0.000199):
            self.make_fixture(tmp_path, GeoPoint(0.0, lon), Heading.NORTH)
        rec = fetch_street_image(StreetRequest(p, Heading.NORTH), tmp_path)
        assert rec.id == "0.000000_-0.000199_0"

    def test_deterministic_record_id(self, tmp_path):
        p = GeoPoint(1.0, 2.0)
        self.make_fixture(tmp_path, p, Heading.WEST)
        a = fetch_street_image(StreetRequest(p, Heading.WEST), tmp_path)
        b = fetch_street_image(StreetRequest(p, Heading.WEST), tmp_path)
        assert a.id == b.id

    def test_index_matches_scan(self, tmp_path):
        points = [GeoPoint(0.001 * i, 0.002 * i) for i in range(5)]
        for p in points:
            self.make_fixture(tmp_path, p, Heading.EAST)
        index = FixtureIndex(tmp_path)
        for p in points:
            rec = index.fetch(StreetRequest(p, Heading.EAST))
            assert rec.capture_point.lon_deg == pytest.approx(p.lon_deg, abs=1e-6)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DataValidationError):
            fetch_street_image(
                StreetRequest(GeoPoint(0, 0), Heading.NORTH), tmp_path / "nope"
            )

    def fixture_with_header(self, directory, point, heading, comments):
        """An undated fixture whose header gets ``comments`` after its magic."""
        path = self.make_fixture(directory, point, heading)
        path.write_bytes(path.read_bytes().replace(b"P6\n", b"P6\n" + comments, 1))
        return path

    def test_date_is_in_the_header(self, tmp_path):
        p = GeoPoint(35.5, -119.3)
        path = self.make_fixture(tmp_path, p, Heading.NORTH, date=datetime.date(2013, 7, 20))
        assert path.read_bytes().startswith(b"P6\n# date=2013-07\n4 4\n255\n")
        assert list(tmp_path.iterdir()) == [path]
        rec = fetch_street_image(StreetRequest(p, Heading.NORTH), tmp_path)
        assert rec.capture_date == datetime.date(2013, 7, 1)  # the header keeps the month

    # The three tests below keep the names they had when a ``.meta`` sidecar
    # held the date; they check the same values in the header's date comment.
    def test_non_ascii_sidecar_date_is_data_error(self, tmp_path):
        p = GeoPoint(35.5, -119.3)
        comment = "# date=\u0662\u0660\u0661\u0663-07\n".encode()
        path = self.fixture_with_header(tmp_path, p, Heading.NORTH, comment)
        with pytest.raises(ImageDecodeError, match=str(path)):
            fetch_street_image(StreetRequest(p, Heading.NORTH), tmp_path)

    @pytest.mark.parametrize("value", ["2013-7", "2013-07-1", "2013-13", "13-07", " 2013-07"])
    def test_malformed_sidecar_date_is_data_error(self, tmp_path, value):
        p = GeoPoint(35.5, -119.3)
        comment = f"# date={value}\n".encode()
        path = self.fixture_with_header(tmp_path, p, Heading.NORTH, comment)
        with pytest.raises(ImageDecodeError, match=f"{path}: unparsable date"):
            fetch_street_image(StreetRequest(p, Heading.NORTH), tmp_path)

    def test_sidecar_day_is_kept(self, tmp_path):
        p = GeoPoint(35.5, -119.3)
        self.fixture_with_header(tmp_path, p, Heading.NORTH, b"# date=2013-07-21\n")
        rec = fetch_street_image(StreetRequest(p, Heading.NORTH), tmp_path)
        assert rec.capture_date == datetime.date(2013, 7, 21)

    def test_second_date_comment_is_data_error(self, tmp_path):
        p = GeoPoint(35.5, -119.3)
        comments = b"# date=2013-07\n# made by hand\n# date=2013-07\n"
        path = self.fixture_with_header(tmp_path, p, Heading.NORTH, comments)
        with pytest.raises(ImageDecodeError, match=f"{path}: second date comment"):
            fetch_street_image(StreetRequest(p, Heading.NORTH), tmp_path)

    def test_other_comments_are_ignored(self, tmp_path):
        p = GeoPoint(35.5, -119.3)
        comments = b"# made by hand\n#dated 2099\n#date=2013-08\n# updated=2099-01\n"
        self.fixture_with_header(tmp_path, p, Heading.NORTH, comments)
        rec = fetch_street_image(StreetRequest(p, Heading.NORTH), tmp_path)
        assert rec.capture_date == datetime.date(2013, 8, 1)
        assert rec.read_pixels()[0, 0, 0] == 128

    def test_a_stale_meta_file_is_not_read(self, tmp_path):
        p = GeoPoint(35.5, -119.3)
        path = self.make_fixture(tmp_path, p, Heading.NORTH, date=datetime.date(2012, 7, 1))
        path.with_suffix(".meta").write_bytes(b"date=2099-01\n")
        rec = fetch_street_image(StreetRequest(p, Heading.NORTH), tmp_path)
        assert rec.capture_date == datetime.date(2012, 7, 1)
        path.with_suffix(".meta").write_bytes(b"date=\xff\n")
        rec = fetch_street_image(StreetRequest(p, Heading.NORTH), tmp_path)
        assert rec.capture_date == datetime.date(2012, 7, 1)

    def test_undated_fixture_has_no_date(self, tmp_path):
        p = GeoPoint(35.5, -119.3)
        path = self.make_fixture(tmp_path, p, Heading.NORTH)
        path.with_suffix(".meta").write_bytes(b"date=2013-07\n")
        rec = fetch_street_image(StreetRequest(p, Heading.NORTH), tmp_path)
        assert rec.capture_date is None

    def test_non_ascii_digits_in_a_name_are_no_fixture(self, tmp_path):
        """``\\d`` would match the Arabic-Indic digit and read the name as 35.5."""
        p = GeoPoint(35.5, -119.3)
        path = self.make_fixture(tmp_path, p, Heading.NORTH)
        path.rename(tmp_path / path.name.replace("3", "\u0663", 1))
        with pytest.raises(FixtureNotFoundError):
            fetch_street_image(StreetRequest(p, Heading.NORTH), tmp_path)

    def test_fixture_with_another_heading_is_never_served(self, tmp_path):
        p = GeoPoint(35.5, -119.3)
        path = self.make_fixture(tmp_path, p, Heading.NORTH)
        path.rename(tmp_path / "35.500000_-119.300000_45.ppm")
        index = FixtureIndex(tmp_path)
        assert (index.resolve([p], list(Heading)) == -1).all()


class _FakeResponse(io.BytesIO):
    def __enter__(self):
        return self

    def __exit__(self, *args):
        self.close()


class TestLiveMode:
    def test_missing_key(self, monkeypatch):
        monkeypatch.delenv("STREETCROP_API_KEY", raising=False)
        with pytest.raises(DataValidationError):
            fetch_street_image(StreetRequest(GeoPoint(0, 0), Heading.NORTH), "live")

    def test_http_error_becomes_transport_error(self, monkeypatch):
        def boom(url):
            raise urllib.error.HTTPError(url, 404, "not found", None, None)

        monkeypatch.setattr("urllib.request.urlopen", boom)
        req = StreetRequest(GeoPoint(0, 0), Heading.NORTH, api_key="k")
        with pytest.raises(TransportError) as err:
            fetch_street_image(req, "live")
        assert err.value.status == 404

    @pytest.mark.parametrize(
        "error",
        [
            ConnectionResetError("connection reset by peer"),
            TimeoutError("the read operation timed out"),
            http.client.IncompleteRead(b"P6\n", 12),
        ],
        ids=["reset", "timeout", "incomplete"],
    )
    def test_failure_mid_read_becomes_transport_error(self, monkeypatch, error):
        class CutResponse(_FakeResponse):
            def read(self, *args):
                raise error

        monkeypatch.setattr("urllib.request.urlopen", lambda url: CutResponse())
        req = StreetRequest(GeoPoint(0, 0), Heading.NORTH, api_key="k")
        with pytest.raises(TransportError, match="transport failure") as err:
            fetch_street_image(req, "live")
        assert err.value.status is None and err.value.__cause__ is error

    def test_ppm_payload_decodes(self, monkeypatch):
        payload = encode_image(solid(128))
        monkeypatch.setattr("urllib.request.urlopen", lambda url: _FakeResponse(payload))
        req = StreetRequest(GeoPoint(1.5, 2.5), Heading.EAST, api_key="k")
        rec = fetch_street_image(req, "live")
        assert rec.pixels.dtype == np.uint8 and rec.pixels.shape == (2, 2, 3)
        assert (rec.pixels == 128).all()
        assert rec.path is None and rec.read_pixels() is rec.pixels
        assert rec.id.startswith("live_")
        assert rec.capture_date is None

    def test_ppm_payload_keeps_its_capture_date(self, monkeypatch, tmp_path):
        """A live PPM carries its header's date, as a fixture of the same bytes does."""
        point = GeoPoint(1.5, 2.5)
        path = write_fixture(
            tmp_path, point, Heading.EAST, solid(128), date=datetime.date(2013, 7, 19),
        )
        payload = path.read_bytes()
        assert b"# date=2013-07\n" in payload
        monkeypatch.setattr("urllib.request.urlopen", lambda url: _FakeResponse(payload))
        rec = fetch_street_image(StreetRequest(point, Heading.EAST, api_key="k"), "live")
        fixture = fetch_street_image(StreetRequest(point, Heading.EAST), tmp_path)
        assert rec.capture_date == fixture.capture_date == datetime.date(2013, 7, 1)
        np.testing.assert_array_equal(rec.pixels, fixture.read_pixels())


def stub_pillow(monkeypatch, open_image):
    """Put a stand-in ``PIL.Image`` with ``open`` = ``open_image`` in ``sys.modules``."""
    image_module = types.ModuleType("PIL.Image")
    image_module.open = open_image
    pil = types.ModuleType("PIL")
    pil.Image = image_module
    monkeypatch.setitem(sys.modules, "PIL", pil)
    monkeypatch.setitem(sys.modules, "PIL.Image", image_module)


class _StubPillowImage:
    """What ``Image.open`` gives: a context manager whose ``convert`` gives
    an array-like, as a Pillow image does."""

    def __init__(self, data, rgb):
        self.data, self.rgb, self.modes, self.closed = data, rgb, [], False

    def __enter__(self):
        return self

    def __exit__(self, *args):
        self.closed = True

    def convert(self, mode):
        self.modes.append(mode)
        return self.rgb.tolist()  # nested lists of ints, not an array


class TestPillowFallback:
    JPEG = b"\xff\xd8\xff\xe0 not really a jpeg"

    def test_non_ppm_payload_is_decoded_to_8_bit_rgb(self, monkeypatch):
        rgb = np.arange(24, dtype=np.uint8).reshape(2, 4, 3) * 10
        opened = []

        def open_image(fh):
            opened.append(_StubPillowImage(fh.read(), rgb))
            return opened[-1]

        stub_pillow(monkeypatch, open_image)
        pixels, date = _decode_any(self.JPEG)
        assert pixels.dtype == np.uint8 and date is None  # a JPEG/PNG carries no date
        np.testing.assert_array_equal(pixels, rgb)
        assert [im.data for im in opened] == [self.JPEG]
        assert opened[0].modes == ["RGB"] and opened[0].closed

    def test_payload_pillow_rejects_is_decode_error(self, monkeypatch):
        def open_image(fh):
            raise OSError("cannot identify image file")

        stub_pillow(monkeypatch, open_image)
        with pytest.raises(ImageDecodeError, match="undecodable image payload: cannot identify"):
            _decode_any(self.JPEG)

    def test_without_pillow_a_non_ppm_payload_is_decode_error(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "PIL", None)  # import PIL raises ImportError
        with pytest.raises(ImageDecodeError, match="Pillow is not installed"):
            _decode_any(self.JPEG)

# --------------------------------------------------------------------------
# The batch lookup against a brute-force scan of every fixture
# --------------------------------------------------------------------------


def brute_force(directory, point, heading):
    """Name of the fixture serving a request, by a scan of every fixture:
    same heading, scalar ``geo_distance`` within 5 m, least ``(distance, name)``."""
    best = None
    for name in os.listdir(directory):
        if not name.endswith(".ppm"):
            continue
        lat, lon, deg = name[: -len(".ppm")].split("_")
        if int(deg) != heading:
            continue
        d = geo_distance(point, GeoPoint(float(lat), float(lon)))
        if d <= FIXTURE_TOLERANCE_M and (best is None or (d, name) < best):
            best = (d, name)
    return None if best is None else best[1][: -len(".ppm")]


def as_fixture_point(lat, lon):
    """The point a fixture at (lat, lon) has once its name rounds it to 6 decimals."""
    return GeoPoint(float(f"{lat:.6f}"), float(f"{lon:.6f}"))


def meters_east(p, meters):
    return p.lon_deg + meters / (METERS_PER_DEGREE * np.cos(np.radians(p.lat_deg)))


def boundary_pair(fixture, heading):
    """The last request east of ``fixture`` (north for NORTH) within 5 m of it and
    the next float past it, found by bisection over adjacent doubles."""
    if heading == Heading.NORTH:
        at = lambda v: GeoPoint(v, fixture.lon_deg)  # noqa: E731
        lo, hi = fixture.lat_deg, fixture.lat_deg + 6.0 / METERS_PER_DEGREE
    else:
        at = lambda v: GeoPoint(fixture.lat_deg, v)  # noqa: E731
        lo, hi = fixture.lon_deg, meters_east(fixture, 6.0)
    while np.nextafter(lo, hi) != hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            mid = np.nextafter(lo, hi)
        if geo_distance(at(float(mid)), fixture) <= FIXTURE_TOLERANCE_M:
            lo = float(mid)
        else:
            hi = float(mid)
    return at(lo), at(hi)


@st.composite
def fixture_layouts(draw):
    """Fixtures within about 12 m of a base point and requests around them.

    Latitudes reach past 84 degrees, where 5 m east-west spans over ten
    times the longitude it spans on the equator. With the base on the equator or the prime meridian,
    each fixture gets a mirror image through the base on that axis, at exactly
    the same distance from it: an equidistant tie broken on the name.
    """
    axis = draw(st.sampled_from(["none", "lat", "lon"]))
    lat = 0.0 if axis == "lat" else draw(st.floats(-84.9, 84.9))
    lon = 0.0 if axis == "lon" else draw(st.floats(-179.0, 179.0))
    base = as_fixture_point(lat, lon)
    meters = st.floats(-12.0, 12.0)
    fixtures = {}
    for dy, dx, heading in draw(
        st.lists(st.tuples(meters, meters, st.sampled_from([Heading.NORTH, Heading.EAST])),
                 min_size=1, max_size=6)
    ):
        p = as_fixture_point(base.lat_deg + dy / METERS_PER_DEGREE, meters_east(base, dx))
        fixtures[p, heading] = None
        if axis == "lat":
            fixtures[GeoPoint(-p.lat_deg, p.lon_deg), heading] = None
        elif axis == "lon":
            fixtures[GeoPoint(p.lat_deg, -p.lon_deg), heading] = None
    requests = [base] + [
        GeoPoint(base.lat_deg + dy / METERS_PER_DEGREE, meters_east(base, dx))
        for dy, dx in draw(st.lists(st.tuples(meters, meters), max_size=6))
    ]
    for p, heading in list(fixtures)[:2]:
        requests += boundary_pair(p, heading)
    return list(fixtures), requests


@settings(max_examples=60, deadline=None)
@given(fixture_layouts())
def test_batch_lookup_matches_a_brute_force_scan(layout):
    fixtures, requests = layout
    with tempfile.TemporaryDirectory() as directory:
        for p, heading in fixtures:
            write_fixture(directory, p, heading, solid(0, (1, 1, 3)))
        index = FixtureIndex(directory)
        found = index.resolve(requests, list(Heading))
        for i, p in enumerate(requests):
            for j, heading in enumerate(Heading):
                expected = brute_force(directory, p, heading)
                got = None if found[i, j] < 0 else index.record(found[i, j]).id
                assert got == expected, (p, heading)
                try:
                    single = index.fetch(StreetRequest(p, heading)).id
                except FixtureNotFoundError:
                    single = None
                assert single == expected


def test_exactly_five_meters_is_served_and_one_ulp_past_is_not(tmp_path):
    fixture = GeoPoint(0.0, 0.0)
    write_fixture(tmp_path, fixture, Heading.EAST, solid(0, (1, 1, 3)))
    inside, outside = boundary_pair(fixture, Heading.EAST)
    assert geo_distance(inside, fixture) == 5.0
    assert geo_distance(outside, fixture) == np.nextafter(5.0, 6.0)
    found = FixtureIndex(tmp_path).resolve([inside, outside], [Heading.EAST])
    assert found.tolist() == [[0], [-1]]


def test_mirrored_fixtures_tie_and_the_first_name_wins(tmp_path):
    for lon in (0.000012, -0.000012):
        write_fixture(tmp_path, GeoPoint(45.0, lon), Heading.EAST, solid(0, (1, 1, 3)))
    p = GeoPoint(45.0, 0.0)
    assert geo_distance(p, GeoPoint(45.0, 0.000012)) == geo_distance(p, GeoPoint(45.0, -0.000012))
    rec = FixtureIndex(tmp_path).fetch(StreetRequest(p, Heading.EAST))
    assert rec.id == "45.000000_-0.000012_90" == brute_force(tmp_path, p, Heading.EAST)


def test_fixture_within_five_meters_is_found_at_high_latitude(tmp_path):
    """East-west, 5 m at 80 degrees spans 2.6e-4 degrees of longitude, almost
    six times what it spans on the equator."""
    fixture = GeoPoint(80.0, 10.00001)
    write_fixture(tmp_path, fixture, Heading.EAST, solid(0, (1, 1, 3)))
    request = GeoPoint(80.0, meters_east(fixture, 4.5))
    assert geo_distance(request, fixture) == 4.49999999999842
    found = FixtureIndex(tmp_path).resolve([request], [Heading.EAST])
    assert found.tolist() == [[0]]


def test_polar_candidate_raises_as_the_scalar_distance_does(tmp_path):
    write_fixture(tmp_path, GeoPoint(86.0, 1.0), Heading.EAST, solid(0, (1, 1, 3)))
    with pytest.raises(DataValidationError, match="exceeds supported"):
        FixtureIndex(tmp_path).resolve([GeoPoint(86.0, 1.00005)], [Heading.EAST])


def test_resolve_in_blocks_of_points_equals_one_pass(tmp_path, monkeypatch):
    """A fixture near the end of one block serves a request in the next, and
    a block holds the requests of every heading of its points."""
    base = GeoPoint(35.5, -119.3)
    points = [GeoPoint(base.lat_deg + k * 2.0 / METERS_PER_DEGREE, base.lon_deg) for k in range(8)]
    for k, p in enumerate(points[::2]):
        write_fixture(tmp_path, p, list(Heading)[k % 4], solid(0, (1, 1, 3)))
    index = FixtureIndex(tmp_path)
    monkeypatch.setattr(FixtureIndex, "_CHUNK_POINTS", len(points))
    whole = index.resolve(points, list(Heading))
    assert (whole >= 0).sum() >= len(points)  # neighbouring points share fixtures
    for n in (1, 3, 5):
        monkeypatch.setattr(FixtureIndex, "_CHUNK_POINTS", n)
        assert index.resolve(points, list(Heading)).tolist() == whole.tolist()
        assert index.resolve(points, [Heading.SOUTH]).tolist() == whole[:, 2:3].tolist()
    assert index.resolve([], list(Heading)).shape == (0, 4)
