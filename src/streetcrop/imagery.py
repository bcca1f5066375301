"""Street-level image requests, retrieval and decoding.

Images move through the pipeline as binary PPM (P6, maxval 255): the
format is trivial to produce from any tool, carries no codec baggage,
and round-trips bit-exactly. Live HTTP retrieval against the public
static street-view API exists behind ``source="live"`` but everything
else, tests included, runs against a fixture directory.

Fixture layout: ``<lat>_<lon>_<headingDeg>.ppm`` with 6-decimal
coordinates, plus an optional ``<same>.meta`` sidecar holding
``date=YYYY-MM`` lines.
"""

from __future__ import annotations

import datetime
import os
import re
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataValidationError, read_input, read_input_text
from .geocore import GeoPoint, Heading, geo_distance

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


@dataclass(frozen=True)
class ImageTensor:
    """RGB image with float values in [0, 1], shape (height, width, 3)."""

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 3 or v.shape[2] != 3:
            raise DataValidationError(f"image must be (h, w, 3), got {v.shape}")
        if not np.isfinite(v).all() or v.min() < 0.0 or v.max() > 1.0:
            raise DataValidationError("image values must be finite and in [0, 1]")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


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


class _ImageField:
    """A record's ``image``: held in memory, or decoded from its ``path``
    on first read and kept from then on."""

    def __get__(self, rec, owner=None):
        if rec is None:
            return None  # the field's default: no image in memory
        image = rec.__dict__.get("_image")
        if image is None:
            image = rec.__dict__["_image"] = decode_image(read_input(rec.path, "image"))
        return image

    def __set__(self, rec, image):
        rec.__dict__["_image"] = image


@dataclass(frozen=True)
class StreetImageRecord:
    """One street image and where it was taken.

    ``path`` is the image file a record was read from (a catalog row or a
    fixture); a record built in memory may have no file.
    """

    id: str
    capture_point: GeoPoint
    heading: Heading
    image: ImageTensor = _ImageField()
    capture_date: datetime.date | None = None
    path: Path | None = None

    def __post_init__(self):
        if self.__dict__["_image"] is None and self.path is None:
            raise DataValidationError(f"image {self.id!r} has neither pixels nor a file")


def build_street_request(p: GeoPoint, h: Heading, size_px: tuple[int, int]) -> str:
    """Deterministic request URL for one image (API key excluded)."""
    w, hh = size_px
    if not (1 <= w <= MAX_IMAGE_PX and 1 <= hh <= MAX_IMAGE_PX):
        raise DataValidationError(f"image size {size_px} outside 1..{MAX_IMAGE_PX}")
    return (
        f"{STREETVIEW_ENDPOINT}?size={w}x{hh}"
        f"&location={p.lat_deg!r},{p.lon_deg!r}&heading={int(h)}"
    )


def encode_image(img: ImageTensor) -> bytes:
    """Serialize to binary PPM, quantizing to 1/255 steps."""
    raw = np.rint(img.values * 255.0).astype(np.uint8)
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + raw.tobytes()


def decode_image(data: bytes) -> ImageTensor:
    """Parse a binary PPM (P6, maxval 255) into a unit-range tensor."""
    if len(data) < 2 or data[:2] != b"P6":
        raise ImageDecodeError("bad magic, expected P6")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ImageDecodeError("truncated header")
        fields.append(data[start:pos])
    try:
        width, height, maxval = (int(f) for f in fields)
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
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return ImageTensor(raw.astype(np.float64) / 255.0)


def fixture_filename(p: GeoPoint, h: Heading) -> str:
    return f"{p.lat_deg:.6f}_{p.lon_deg:.6f}_{int(h)}.ppm"


_FIXTURE_STEM = re.compile(r"^(-?\d+\.\d{6})_(-?\d+\.\d{6})_(\d+)$")


def write_fixture(
    directory: str | Path,
    point: GeoPoint,
    heading: Heading,
    image: ImageTensor,
    date: datetime.date | None = None,
) -> Path:
    """Store an image (and optional date sidecar) in fixture layout."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / fixture_filename(point, heading)
    path.write_bytes(encode_image(image))
    if date is not None:
        path.with_suffix(".meta").write_text(f"date={date.year:04d}-{date.month:02d}\n")
    return path


def _read_sidecar_date(ppm_path: Path) -> datetime.date | None:
    meta = ppm_path.with_suffix(".meta")
    if not meta.exists():
        return None
    for line in read_input_text(meta, "fixture sidecar").splitlines():
        line = line.strip()
        if line.startswith("date="):
            value = line[len("date=") :]
            for fmt in ("%Y-%m-%d", "%Y-%m"):
                try:
                    return datetime.datetime.strptime(value, fmt).date()
                except ValueError:
                    continue
            raise DataValidationError(f"unparsable date {value!r} in {meta}")
    return None


def _scan_fixtures(directory: Path):
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".ppm"):
            continue
        m = _FIXTURE_STEM.match(name[: -len(".ppm")])
        if m is None:
            continue
        yield directory / name, GeoPoint(float(m.group(1)), float(m.group(2))), int(m.group(3))


class FixtureIndex:
    """One-shot scan of a fixture directory for repeated lookups.

    Buckets fixtures on a coarse lat/lon grid so a campaign of many
    thousand requests does not rescan the directory per request.
    Resolution semantics are identical to :func:`fetch_street_image`.
    """

    _BUCKET_DEG = 1e-4  # ~11 m, comfortably above the 5 m tolerance

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise DataValidationError(f"fixture directory not found: {self.directory}")
        self._buckets: dict[tuple[int, int, int], list] = {}
        for path, point, heading_deg in _scan_fixtures(self.directory):
            key = self._key(point, heading_deg)
            self._buckets.setdefault(key, []).append((path, point))

    def _key(self, p: GeoPoint, heading_deg: int):
        return (
            int(np.floor(p.lat_deg / self._BUCKET_DEG)),
            int(np.floor(p.lon_deg / self._BUCKET_DEG)),
            heading_deg,
        )

    def fetch(self, req: StreetRequest) -> StreetImageRecord:
        ki, kj, kh = self._key(req.point, int(req.heading))
        best = None
        for i in (ki - 1, ki, ki + 1):
            for j in (kj - 1, kj, kj + 1):
                for path, point in self._buckets.get((i, j, kh), ()):
                    d = geo_distance(req.point, point)
                    if d <= FIXTURE_TOLERANCE_M and (best is None or (d, path.name) < best[:2]):
                        best = (d, path.name, path, point)
        if best is None:
            raise FixtureNotFoundError(
                f"no fixture within {FIXTURE_TOLERANCE_M} m of "
                f"({req.point.lat_deg}, {req.point.lon_deg}) heading {int(req.heading)}"
            )
        *_, path, point = best
        return StreetImageRecord(
            id=path.stem,
            capture_point=point,
            heading=req.heading,
            image=decode_image(read_input(path, "fixture image")),
            capture_date=_read_sidecar_date(path),
            path=path,
        )


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
    key = req.api_key or os.environ.get(API_KEY_ENV)
    if not key:
        raise DataValidationError(f"live mode needs an API key ({API_KEY_ENV} or request field)")
    url = build_street_request(req.point, req.heading, req.size_px) + f"&key={key}"
    try:
        with urllib.request.urlopen(url) as resp:
            data = resp.read()
    except urllib.error.HTTPError as exc:
        raise TransportError(f"HTTP {exc.code} fetching street image", status=exc.code) from exc
    except urllib.error.URLError as exc:
        raise TransportError(f"transport failure: {exc.reason}") from exc
    image = _decode_any(data)
    return StreetImageRecord(
        id=f"live_{req.point.lat_deg:.6f}_{req.point.lon_deg:.6f}_{int(req.heading)}",
        capture_point=req.point,
        heading=req.heading,
        image=image,
    )


def _decode_any(data: bytes) -> ImageTensor:
    """Decode PPM directly; fall back to Pillow for JPEG/PNG live payloads."""
    if data[:2] == b"P6":
        return decode_image(data)
    try:
        import io

        from PIL import Image
    except ImportError as exc:
        raise ImageDecodeError(
            "payload is not PPM and Pillow is not installed for fallback decoding"
        ) from exc
    try:
        with Image.open(io.BytesIO(data)) as im:
            rgb = np.asarray(im.convert("RGB"), dtype=np.float64) / 255.0
    except Exception as exc:
        raise ImageDecodeError(f"undecodable image payload: {exc}") from exc
    return ImageTensor(rgb)
