"""Geographic primitives for the referencing pipeline.

Coordinates are WGS84 degrees. All metric conversions use a local
equirectangular model with a fixed scale of 111320 m per degree of
latitude (and per degree of longitude at the equator, shrinking with
cos(latitude)). The study areas this package targets are a few tens of
kilometres across, so spherical or ellipsoidal precision buys nothing.

The one domain-specific operation here is :func:`shift_to_parcel`: a
camera mounted on a survey vehicle sits on the road, so its coordinate
must be moved half a road width to reach the parcel edge and then one
pixel size further to clear the mixed road/parcel boundary pixels.
Optional extra whole-pixel steps walk deeper into the parcel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

from .errors import DataValidationError

METERS_PER_DEGREE = 111320.0

#: Latitudes beyond this are rejected: cos(lat) degeneracy makes the
#: local-metric longitude conversion meaningless near the poles.
MAX_SUPPORTED_LAT_DEG = 85.0


class UnsupportedLatitudeError(DataValidationError):
    """Point too close to a pole for the equirectangular model."""


class EmptyGridError(DataValidationError):
    """Sampling grid construction would produce no points."""


class Heading(IntEnum):
    """Camera facing direction, restricted to the four cardinals."""

    NORTH = 0
    EAST = 90
    SOUTH = 180
    WEST = 270


@dataclass(frozen=True)
class GeoPoint:
    """A WGS84 coordinate."""

    lat_deg: float
    lon_deg: float

    def __post_init__(self):
        if not (-90.0 <= self.lat_deg <= 90.0):
            raise DataValidationError(f"latitude out of range: {self.lat_deg}")
        if not (-180.0 <= self.lon_deg <= 180.0):
            raise DataValidationError(f"longitude out of range: {self.lon_deg}")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned lat/lon rectangle, strictly non-degenerate."""

    min_lat_deg: float
    max_lat_deg: float
    min_lon_deg: float
    max_lon_deg: float

    def __post_init__(self):
        GeoPoint(self.min_lat_deg, self.min_lon_deg)
        GeoPoint(self.max_lat_deg, self.max_lon_deg)
        if self.min_lat_deg >= self.max_lat_deg or self.min_lon_deg >= self.max_lon_deg:
            raise DataValidationError("degenerate bounding box (zero or negative extent)")

    @property
    def mid_lat_deg(self) -> float:
        return 0.5 * (self.min_lat_deg + self.max_lat_deg)


@dataclass(frozen=True)
class ShiftParams:
    """Empirical coefficients of the camera-to-parcel coordinate shift.

    ``road_width_y_m`` is the full road width; the camera is assumed to
    sit on the road centerline. ``pixel_size_x_m`` is the ground pixel
    size of the raster the reference points will feed (30 m for the
    Landsat-class products this was designed around, 10 m for finer
    sensors). ``extra_steps`` adds whole extra pixel-lengths in the same
    direction, used to multiply points inside large parcels.
    """

    road_width_y_m: float
    pixel_size_x_m: float
    extra_steps: int = 0

    def __post_init__(self):
        if self.road_width_y_m < 0:
            raise DataValidationError("road width must be >= 0")
        if self.pixel_size_x_m <= 0:
            raise DataValidationError("pixel size must be > 0")
        if self.extra_steps < 0:
            raise DataValidationError("extra_steps must be >= 0")

    @property
    def shift_m(self) -> float:
        """Total displacement: half road width + (1 + extra_steps) pixels."""
        return 0.5 * self.road_width_y_m + self.pixel_size_x_m * (1 + self.extra_steps)


def _check_latitude(p: GeoPoint):
    if abs(p.lat_deg) > MAX_SUPPORTED_LAT_DEG:
        raise UnsupportedLatitudeError(
            f"|lat| = {abs(p.lat_deg)} exceeds supported {MAX_SUPPORTED_LAT_DEG} deg"
        )


def offset_point(p: GeoPoint, h: Heading, d: float) -> GeoPoint:
    """Move ``p`` by ``d`` meters along the cardinal heading ``h``.

    Local equirectangular step: one degree of latitude is 111320 m, one
    degree of longitude is 111320 * cos(lat) m. Only the axis matching
    the heading changes.
    """
    _check_latitude(p)
    # One degree of arc is the ceiling: far beyond campaign shifts, small
    # enough that the local-metric model stays honest.
    if not (0.0 <= d <= METERS_PER_DEGREE):
        raise DataValidationError(f"offset distance {d} outside [0, {METERS_PER_DEGREE}] m")
    dlat = d / METERS_PER_DEGREE
    dlon = d / (METERS_PER_DEGREE * math.cos(math.radians(p.lat_deg)))
    if h == Heading.NORTH:
        return GeoPoint(p.lat_deg + dlat, p.lon_deg)
    if h == Heading.SOUTH:
        return GeoPoint(p.lat_deg - dlat, p.lon_deg)
    if h == Heading.EAST:
        return GeoPoint(p.lat_deg, p.lon_deg + dlon)
    if h == Heading.WEST:
        return GeoPoint(p.lat_deg, p.lon_deg - dlon)
    raise DataValidationError(f"unknown heading: {h!r}")


def geo_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Equirectangular distance in meters, consistent with offset_point."""
    _check_latitude(a)
    _check_latitude(b)
    dy = (b.lat_deg - a.lat_deg) * METERS_PER_DEGREE
    mid = math.radians(0.5 * (a.lat_deg + b.lat_deg))
    dx = (b.lon_deg - a.lon_deg) * METERS_PER_DEGREE * math.cos(mid)
    return math.hypot(dx, dy)


def shift_to_parcel(camera: GeoPoint, h: Heading, sp: ShiftParams) -> GeoPoint:
    """Shift a camera coordinate into the parcel it was facing.

    The displacement is ``0.5 * road_width + pixel_size * (1 + extra_steps)``
    along the camera's facing direction.
    """
    return offset_point(camera, h, sp.shift_m)


def make_sampling_grid(bbox: BoundingBox, spacing_m: float) -> list[GeoPoint]:
    """Regular grid of points covering ``bbox`` at ``spacing_m`` meters.

    The grid origin is the north-west corner and ordering is row-major
    (north to south, west to east within a row). Longitude spacing is
    converted at the bbox mid-latitude so rows share column positions.
    Every point lies inside or on the bbox boundary.
    """
    if not (1.0 <= spacing_m <= 10000.0):
        raise DataValidationError(f"spacing {spacing_m} outside [1, 10000] m")
    lat_extent_m = (bbox.max_lat_deg - bbox.min_lat_deg) * METERS_PER_DEGREE
    cos_mid = math.cos(math.radians(bbox.mid_lat_deg))
    lon_extent_m = (bbox.max_lon_deg - bbox.min_lon_deg) * METERS_PER_DEGREE * cos_mid
    if lat_extent_m <= 0 or lon_extent_m <= 0 or cos_mid <= 0:
        raise EmptyGridError("bounding box has no usable extent")
    # The 1e-9 relative slack keeps a box constructed as an exact multiple
    # of the spacing from losing its far edge to float rounding.
    nrows = int(math.floor(lat_extent_m / spacing_m + 1e-9)) + 1
    ncols = int(math.floor(lon_extent_m / spacing_m + 1e-9)) + 1
    dlat = spacing_m / METERS_PER_DEGREE
    dlon = spacing_m / (METERS_PER_DEGREE * cos_mid)
    points = []
    for i in range(nrows):
        # Clamp: the far row/column may overshoot the boundary by float
        # noise when the extent is an exact multiple of the spacing.
        lat = max(bbox.max_lat_deg - i * dlat, bbox.min_lat_deg)
        for j in range(ncols):
            lon = min(bbox.min_lon_deg + j * dlon, bbox.max_lon_deg)
            points.append(GeoPoint(lat, lon))
    return points
