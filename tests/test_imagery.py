import datetime
import io
import urllib.error

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BYTE_EDITS, mutate_bytes

from streetcrop.errors import DataValidationError
from streetcrop.geocore import GeoPoint, Heading, offset_point
from streetcrop.imagery import (
    FixtureIndex,
    FixtureNotFoundError,
    ImageDecodeError,
    ImageTensor,
    StreetRequest,
    TransportError,
    build_street_request,
    decode_image,
    encode_image,
    fetch_street_image,
    fixture_filename,
    write_fixture,
)


def tensor(values):
    return ImageTensor(np.asarray(values, dtype=np.float64))


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


class TestDecode:
    def test_single_white_pixel(self):
        data = b"P6\n1 1\n255\n\xff\xff\xff"
        img = decode_image(data)
        assert img.values.shape == (1, 1, 3)
        np.testing.assert_array_equal(img.values, 1.0)

    def test_black_then_white(self):
        data = b"P6\n2 1\n255\n\x00\x00\x00\xff\xff\xff"
        img = decode_image(data)
        np.testing.assert_array_equal(img.values[0, 0], [0, 0, 0])
        np.testing.assert_array_equal(img.values[0, 1], [1, 1, 1])

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
        img = decode_image(data)
        assert img.values[0, 0, 0] == pytest.approx(128 / 255)


@settings(max_examples=50, deadline=None)
@given(
    h=st.integers(1, 8),
    w=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
)
def test_encode_decode_round_trip(h, w, seed):
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    img = tensor(raw / 255.0)
    assert decode_image(encode_image(img)).values.tolist() == img.values.tolist()


@settings(max_examples=150, deadline=None)
@given(BYTE_EDITS)
def test_mutated_ppm_raises_only_decode_errors(edits):
    image = tensor(np.random.default_rng(3).random((3, 4, 3)))
    try:
        decode_image(mutate_bytes(encode_image(image), edits))
    except ImageDecodeError:
        pass


class TestImageTensor:
    def test_range_enforced(self):
        with pytest.raises(DataValidationError):
            tensor(np.full((2, 2, 3), 1.5))

    def test_shape_enforced(self):
        with pytest.raises(DataValidationError):
            tensor(np.zeros((2, 2)))


class TestFixtures:
    def make_fixture(self, directory, point, heading, fill=0.5, date=None):
        img = tensor(np.full((4, 4, 3), fill))
        return write_fixture(directory, point, heading, img, date=date)

    def test_exact_lookup(self, tmp_path):
        p = GeoPoint(35.5, -119.3)
        self.make_fixture(tmp_path, p, Heading.EAST, date=datetime.date(2012, 7, 1))
        rec = fetch_street_image(StreetRequest(p, Heading.EAST), tmp_path)
        assert rec.id == fixture_filename(p, Heading.EAST)[: -len(".ppm")]
        assert rec.capture_date == datetime.date(2012, 7, 1)
        assert rec.image.values[0, 0, 0] == pytest.approx(0.5, abs=1e-2)

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
        self.make_fixture(tmp_path, near, Heading.NORTH, fill=0.25)
        self.make_fixture(tmp_path, far, Heading.NORTH, fill=0.75)
        rec = fetch_street_image(StreetRequest(p, Heading.NORTH), tmp_path)
        assert rec.image.values[0, 0, 0] == pytest.approx(0.25, abs=1e-2)

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

    def test_ppm_payload_decodes(self, monkeypatch):
        payload = encode_image(tensor(np.full((2, 2, 3), 0.5)))
        monkeypatch.setattr("urllib.request.urlopen", lambda url: _FakeResponse(payload))
        req = StreetRequest(GeoPoint(1.5, 2.5), Heading.EAST, api_key="k")
        rec = fetch_street_image(req, "live")
        assert rec.image.values.shape == (2, 2, 3)
        assert rec.id.startswith("live_")
