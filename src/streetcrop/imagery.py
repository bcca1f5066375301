"""Street-level image requests, retrieval and decoding.

Images move through the pipeline as binary PPM (P6, maxval 255): the
format is trivial to produce from any tool, carries no codec baggage,
and round-trips bit-exactly. Live HTTP retrieval against the public
static street-view API exists behind ``source="live"`` but everything
else, tests included, runs against a fixture directory.

Fixture layout: ``<lat>_<lon>_<headingDeg>.ppm`` with 6-decimal
coordinates in ASCII digits; a dated fixture's PPM header holds a
``# date=YYYY-MM`` (or ``YYYY-MM-DD``) comment, and no other file is
read. A :class:`FixtureIndex` holds the fixtures as coordinate arrays
and resolves any number of requests in array passes over a bounded
block of points each.

A street image is its 8-bit ``(h, w, 3)`` pixels from the file to the
network: the renderer makes it, :func:`encode_image` writes it and
:func:`decode_image`, its exact inverse and the one PPM parser, reads it
back. A :class:`StreetImageRecord` read from a fixture or a catalog keeps
its file's path, not its pixels: :meth:`StreetImageRecord.read_pixels`
parses the file on every call. Only a record built in memory (a live
fetch) holds its ``pixels``.
"""

from __future__ import annotations

import datetime
import io
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataValidationError, parse_date, parse_int, read_input
from .geocore import MAX_SUPPORTED_LAT_DEG, METERS_PER_DEGREE, GeoPoint, Heading, geo_distance

#: Maximum camera-to-fixture distance for a fixture to satisfy a request.
FIXTURE_TOLERANCE_M = 5.0

#: Largest request dimension the upstream image service provides.
MAX_IMAGE_PX = 640

STREETVIEW_ENDPOINT = "https://maps.googleapis.com/maps/api/streetview"
API_KEY_ENV = "STREETCROP_API_KEY"


class ImageDecodeError(DataValidationError):
    """Byte stream is not a well-formed P6 PPM image."""


class FixtureNotFoundError(DataValidationError):
    """No fixture within tolerance of the requested point and heading."""


class TransportError(DataValidationError):
    """Live HTTP retrieval failed."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


def _check_pixels(pixels: np.ndarray, what: str) -> None:
    """Reject anything but ``(h, w, 3)`` uint8 with ``h, w >= 1``: the one
    form of a street image, and what :func:`decode_image` can give."""
    if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] != 3 or not pixels.size:
        raise DataValidationError(
            f"{what} pixels must be (h, w, 3) uint8 with h, w >= 1, "
            f"got {pixels.shape} {pixels.dtype}"
        )


@dataclass(frozen=True)
class StreetRequest:
    point: GeoPoint
    heading: Heading
    size_px: tuple[int, int] = (MAX_IMAGE_PX, MAX_IMAGE_PX)
    api_key: str | None = None

    def __post_init__(self):
        w, h = self.size_px
        if not (1 <= w <= MAX_IMAGE_PX and 1 <= h <= MAX_IMAGE_PX):
            raise DataValidationError(f"image size {self.size_px} outside 1..{MAX_IMAGE_PX}")


@dataclass(frozen=True)
class StreetImageRecord:
    """One street image and where it was taken.

    ``path`` is the image file a record was read from (a catalog row or a
    fixture); ``pixels`` holds the ``(h, w, 3)`` uint8 values only for a
    record built in memory (a live fetch), which may have no file.
    :meth:`read_pixels` gets either.

    Records compare and hash on every field but ``pixels``: two records
    are equal when their id, place, heading, date and file are, so records
    can sit in sets and be dict keys whether or not they hold pixels.
    """

    id: str
    capture_point: GeoPoint
    heading: Heading
    pixels: np.ndarray | None = field(default=None, compare=False)
    capture_date: datetime.date | None = None
    path: Path | None = None

    def __post_init__(self):
        if self.pixels is None:
            if self.path is None:
                raise DataValidationError(f"image {self.id!r} has neither pixels nor a file")
        else:
            _check_pixels(self.pixels, f"image {self.id!r}")

    def read_pixels(self) -> np.ndarray:
        """The image's ``(h, w, 3)`` uint8 values: those held in memory, else
        the file's, parsed on every call and kept nowhere, so a stage that
        streams images through the network holds only a batch of them."""
        if self.pixels is None:
            return _read_ppm(self.path, "image")[0]
        return self.pixels


def build_street_request(p: GeoPoint, h: Heading, size_px: tuple[int, int]) -> str:
    """Deterministic request URL for one image (API key excluded)."""
    w, hh = size_px
    if not (1 <= w <= MAX_IMAGE_PX and 1 <= hh <= MAX_IMAGE_PX):
        raise DataValidationError(f"image size {size_px} outside 1..{MAX_IMAGE_PX}")
    return (
        f"{STREETVIEW_ENDPOINT}?size={w}x{hh}"
        f"&location={p.lat_deg!r},{p.lon_deg!r}&heading={int(h)}"
    )


def encode_image(pixels: np.ndarray, date: datetime.date | None = None) -> bytes:
    """Serialize ``(h, w, 3)`` uint8 pixels to binary PPM; a dated image's
    header holds its year and month as a ``# date=YYYY-MM`` comment."""
    _check_pixels(pixels, "encoded image")
    height, width, _ = pixels.shape
    comment = "" if date is None else f"# date={date.year:04d}-{date.month:02d}\n"
    header = f"P6\n{comment}{width} {height}\n255\n".encode("ascii")
    return header + pixels.tobytes()


def decode_image(data: bytes) -> tuple[np.ndarray, datetime.date | None]:
    """``(pixels, date)`` of a binary PPM (P6, maxval 255), the exact inverse
    of :func:`encode_image`: its ``(h, w, 3)`` uint8 pixels, and the date of
    its one ``# date=YYYY-MM[-DD]`` header comment, if any. Other comments
    are skipped; a malformed date or a second date comment is an error."""
    if data[:2] != b"P6":
        raise ImageDecodeError("bad magic, expected P6")
    pos = 2
    fields = []
    date = None
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            end = data.find(b"\n", pos)
            if end < 0:
                raise ImageDecodeError("truncated header")
            comment, pos = data[pos + 1 : end].lstrip(), end
            if comment.startswith(b"date="):
                if date is not None:
                    raise ImageDecodeError("second date comment in header")
                try:
                    date = parse_date(comment[len(b"date=") :].decode("latin-1"), "YYYY-MM[-DD]")
                except ValueError as exc:
                    raise ImageDecodeError(f"unparsable date comment: {exc}") from None
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ImageDecodeError("truncated header")
        fields.append(data[start:pos])
    try:
        width, height, maxval = (parse_int(f.decode("ascii")) for f in fields)
    except ValueError as exc:
        raise ImageDecodeError(f"non-numeric header field: {exc}") from exc
    if width < 1 or height < 1:
        raise ImageDecodeError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise ImageDecodeError(f"unsupported maxval {maxval}, expected 255")
    pos += 1  # exactly one whitespace byte separates header from payload
    payload = data[pos:]
    expected = width * height * 3
    if len(payload) != expected:
        raise ImageDecodeError(f"payload is {len(payload)} bytes, expected {expected}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3), date


def _read_ppm(path: Path, what: str):
    """``(pixels, date)`` of the PPM file ``path``; a decode error names the file."""
    try:
        return decode_image(read_input(path, what))
    except ImageDecodeError as exc:
        raise ImageDecodeError(f"{path}: {exc}") from None


def fixture_filename(p: GeoPoint, h: Heading) -> str:
    return f"{p.lat_deg:.6f}_{p.lon_deg:.6f}_{int(h)}.ppm"


_FIXTURE_NAME = re.compile(r"(-?[0-9]+\.[0-9]{6})_(-?[0-9]+\.[0-9]{6})_([0-9]+)\.ppm")


def write_fixture(
    directory: str | Path,
    point: GeoPoint,
    heading: Heading,
    pixels: np.ndarray,
    date: datetime.date | None = None,
) -> Path:
    """Store an image's pixels in fixture layout, ``date`` (if given) in its header."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / fixture_filename(point, heading)
    path.write_bytes(encode_image(pixels, date))
    return path


def _scan_fixtures(directory: Path):
    for name in sorted(os.listdir(directory)):
        m = _FIXTURE_NAME.fullmatch(name)
        if m is not None:
            yield directory / name, GeoPoint(float(m[1]), float(m[2])), int(m[3])


_HEADINGS = {int(h) for h in Heading}


class FixtureIndex:
    """One-shot scan of a fixture directory for repeated lookups.

    A request is served by the nearest fixture with its heading within
    ``FIXTURE_TOLERANCE_M``, ties broken on filename. Candidates come from
    the 3x3 block of lat/lon buckets around the request. A latitude bucket
    spans ``_LAT_BUCKET_DEG``; a longitude bucket is as wide as the
    tolerance (plus ``_MARGIN_M``) at ``MAX_SUPPORTED_LAT_DEG``, so a fixture
    within reach lies at most one bucket away at every supported latitude.
    The fixtures are held as arrays sorted by bucket code, so
    :meth:`resolve` finds the candidates of each block of
    ``_CHUNK_POINTS`` points with ``searchsorted``, drops those a vectorised
    distance puts clearly out of reach, and leaves the 5 m test and the
    tie-break to the scalar :func:`geo_distance`.
    :meth:`fetch` is the same lookup for one request.
    """

    #: Distances this far past the tolerance go to the scalar test too,
    #: covering the last-bit differences of numpy's trigonometry.
    _MARGIN_M = 1e-6
    _LAT_BUCKET_DEG = 1e-4  # ~11 m
    #: ~57 m at the equator, 5 m at the supported limit
    _LON_BUCKET_DEG = (FIXTURE_TOLERANCE_M + _MARGIN_M) / (
        METERS_PER_DEGREE * math.cos(math.radians(MAX_SUPPORTED_LAT_DEG))
    )

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise DataValidationError(f"fixture directory not found: {self.directory}")
        paths, points, headings = [], [], []
        for path, point, heading_deg in _scan_fixtures(self.directory):
            if heading_deg in _HEADINGS:  # no request has another heading
                paths.append(path)
                points.append(point)
                headings.append(heading_deg)
        lat = np.array([p.lat_deg for p in points], dtype=np.float64)
        lon = np.array([p.lon_deg for p in points], dtype=np.float64)
        codes = self._code(lat, lon, np.array(headings, dtype=np.int64))
        order = np.argsort(codes)
        self._codes_sorted = codes[order]
        self._lat, self._lon = lat[order], lon[order]
        self._paths = [paths[k] for k in order]
        self._points = [points[k] for k in order]
        self._headings = [Heading(headings[k]) for k in order]

    @classmethod
    def _code(cls, lat, lon, heading_deg, di=0, dj=0) -> np.ndarray:
        """One sortable int64 per (lat bucket + di, lon bucket + dj, heading);
        a bucket index stays below 2**20 in latitude and 2**21 in longitude."""
        ki = np.floor(lat / cls._LAT_BUCKET_DEG).astype(np.int64) + di
        kj = np.floor(lon / cls._LON_BUCKET_DEG).astype(np.int64) + dj
        return ((ki + 2**20) * 2**22 + (kj + 2**21)) * 4 + heading_deg // 90

    #: Points resolved per array pass, so a pass's temporaries stay bounded
    #: however large the sampling grid is.
    _CHUNK_POINTS = 2048

    def resolve(self, points: Sequence[GeoPoint], headings: Sequence[Heading]) -> np.ndarray:
        """Index of the fixture serving the request ``(points[i], headings[j])``
        at ``[i, j]``, or -1 where none lies within ``FIXTURE_TOLERANCE_M``."""
        n = self._CHUNK_POINTS
        return np.concatenate(
            [self._resolve(points[i : i + n], headings) for i in range(0, max(len(points), 1), n)]
        )

    def _resolve(self, points: Sequence[GeoPoint], headings: Sequence[Heading]) -> np.ndarray:
        """:meth:`resolve` in one array pass."""
        found = np.full(len(points) * len(headings), -1, dtype=np.int64)
        # request r asks for points[r // len(headings)] at headings[r % len(headings)]
        lat = np.repeat([p.lat_deg for p in points], len(headings))
        lon = np.repeat([p.lon_deg for p in points], len(headings))
        heading = np.tile([int(Heading(h)) for h in headings], len(points))
        req, fix = [], []
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                code = self._code(lat, lon, heading, di, dj)
                lo = np.searchsorted(self._codes_sorted, code, "left")
                count = np.searchsorted(self._codes_sorted, code, "right") - lo
                hit = np.flatnonzero(count)
                n = count[hit]
                req.append(np.repeat(hit, n))
                # fixtures lo, lo + 1, ..., lo + n - 1 of each request with a hit
                fix.append(np.repeat(lo[hit] - np.cumsum(n) + n, n) + np.arange(n.sum()))
        req, fix = np.concatenate(req), np.concatenate(fix)
        # the equirectangular distance of geocore.geo_distance, in numpy
        flat, rlat = self._lat[fix], lat[req]
        dy = (flat - rlat) * METERS_PER_DEGREE
        dx = (self._lon[fix] - lon[req]) * METERS_PER_DEGREE * np.cos(
            np.radians(0.5 * (rlat + flat))
        )
        keep = np.hypot(dx, dy) <= FIXTURE_TOLERANCE_M + self._MARGIN_M
        # geo_distance raises for these, as it does on every candidate it sees
        keep |= np.maximum(np.abs(rlat), np.abs(flat)) > MAX_SUPPORTED_LAT_DEG
        best: dict[int, tuple[float, str]] = {}
        for r, k in zip(req[keep].tolist(), fix[keep].tolist()):
            d = geo_distance(points[r // len(headings)], self._points[k])
            key = (d, self._paths[k].name)
            if d <= FIXTURE_TOLERANCE_M and (r not in best or key < best[r]):
                best[r] = key
                found[r] = k
        return found.reshape(len(points), len(headings))

    def record(self, k: int) -> StreetImageRecord:
        """Fixture ``k`` of :meth:`resolve`, its image checked and its date
        read by one parse; the record keeps the path, not the pixels."""
        path = self._paths[k]
        return StreetImageRecord(
            id=path.stem,
            capture_point=self._points[k],
            heading=self._headings[k],
            capture_date=_read_ppm(path, "fixture image")[1],
            path=path,
        )

    def fetch(self, req: StreetRequest) -> StreetImageRecord:
        k = int(self.resolve([req.point], [req.heading])[0, 0])
        if k < 0:
            raise FixtureNotFoundError(
                f"no fixture within {FIXTURE_TOLERANCE_M} m of "
                f"({req.point.lat_deg}, {req.point.lon_deg}) heading {int(req.heading)}"
            )
        return self.record(k)


def fetch_street_image(req: StreetRequest, source: str | Path) -> StreetImageRecord:
    """Retrieve one image, either live or from a fixture directory.

    Fixture mode resolves to the nearest fixture within
    ``FIXTURE_TOLERANCE_M`` of the requested point with a matching
    heading; ties break on filename so retrieval is deterministic.
    """
    if source == "live":
        return _fetch_live(req)
    return FixtureIndex(source).fetch(req)


def _fetch_live(req: StreetRequest) -> StreetImageRecord:
    import http.client  # the network stack loads on the first live fetch
    import urllib.error
    import urllib.request
    key = req.api_key or os.environ.get(API_KEY_ENV)
    if not key:
        raise DataValidationError(f"live mode needs an API key ({API_KEY_ENV} or request field)")
    url = build_street_request(req.point, req.heading, req.size_px) + f"&key={key}"
    try:
        with urllib.request.urlopen(url) as resp:
            data = resp.read()
    except urllib.error.HTTPError as exc:
        raise TransportError(f"HTTP {exc.code} fetching street image", status=exc.code) from exc
    except (OSError, http.client.HTTPException) as exc:
        # a URLError, or a read cut short: a reset, a timeout, an IncompleteRead
        raise TransportError(f"transport failure: {getattr(exc, 'reason', exc)}") from exc
    pixels, date = _decode_any(data)
    return StreetImageRecord(
        id=f"live_{req.point.lat_deg:.6f}_{req.point.lon_deg:.6f}_{int(req.heading)}",
        capture_point=req.point,
        heading=req.heading,
        pixels=pixels,
        capture_date=date,
    )


def _decode_any(data: bytes):
    """``(pixels, date)`` of a payload: a PPM's ``(h, w, 3)`` uint8 pixels and
    header date, as a fixture read gives them, or a JPEG/PNG one's pixels
    through Pillow, with no date."""
    if data[:2] == b"P6":
        return decode_image(data)
    try:
        from PIL import Image
    except ImportError as exc:
        raise ImageDecodeError(
            "payload is not PPM and Pillow is not installed for fallback decoding"
        ) from exc
    try:
        with Image.open(io.BytesIO(data)) as im:
            return np.asarray(im.convert("RGB"), dtype=np.uint8), None
    except Exception as exc:
        raise ImageDecodeError(f"undecodable image payload: {exc}") from exc
