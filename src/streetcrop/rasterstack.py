"""Georeferenced band rasters and temporal-spectral feature extraction.

Grids are plain-text ESRI-ASCII-style files (six-key header plus
whitespace-separated rows) so they round-trip bit-exactly in any
language. Row 0 is the northernmost row; ``xllcorner``/``yllcorner``
give the lower-left corner in degrees.

Next to every grid it writes, :func:`write_grid` leaves a binary twin
``<name>.f8``: one line holding the hex sha256 of the grid's text bytes
with the payload appended, then the payload itself, the values as
little-endian float64 in row-major order (``-0.0`` stored as ``+0.0``,
as the text denotes it). The text stays authoritative: :func:`read_grid`
always parses the header from it and takes the body from the twin only
when the digest matches this very text and the payload has exactly
``8 * ncols * nrows`` bytes. A missing, stale or corrupt twin is ignored
and the body is parsed from the text. A twin costs 8 bytes per cell on
disk and spares every later reader the text-to-float conversion.

A scene is one acquisition date with six surface-reflectance bands
(Blue, Green, Red, NIR, SWIR1, SWIR2) plus a QA grid where 0 means
clear and any nonzero value (cloud bit 0, shadow bit 1, snow bit 2)
masks the cell. The ten candidate model features are the six bands and
four indices:

    NDVI  = (NIR - Red) / (NIR + Red)
    EVI   = 2.5 (NIR - Red) / (NIR + 6 Red - 7 Blue + 1)
    ENDVI = ((NIR + Green) - 2 Blue) / ((NIR + Green) + 2 Blue)
    LSWI  = (NIR - SWIR1) / (NIR + SWIR1)

A scene manifest may state a ``scale=`` factor for its band grids:
:class:`SceneStack` reads each band grid with ``read_grid(path, scale=)``,
so stored integers become reflectance in [0, 1] on ingest. The synthetic
world writes ``round(reflectance * 10000)`` with ``scale=0.0001``, as
Landsat surface-reflectance products store reflectance. Without the line
band values are reflectance as stored; QA grids are never scaled.

A :class:`SceneStack` is built for one feature list and reads its grids
then: the QA grids, and each band a feature needs, once. After that it
reads no file.
"""

from __future__ import annotations

import datetime
import hashlib
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DataValidationError,
    check_floats,
    parse_date,
    parse_float,
    parse_int,
    read_input,
    read_input_text,
)
from .geocore import GeoPoint

BAND_NAMES = ("Blue", "Green", "Red", "NIR", "SWIR1", "SWIR2")

#: Denominators smaller than this produce nodata rather than an index value.
DENOMINATOR_EPS = 1e-12


class GridFormatError(DataValidationError):
    """Malformed grid or manifest file."""


class GeoreferenceMismatchError(DataValidationError):
    """Two grids that must be co-registered are not."""


class OutOfExtentError(DataValidationError):
    """Point falls outside a grid's extent."""


class MissingBandError(DataValidationError):
    """A band required by the requested index is absent."""


class UnusablePixelError(DataValidationError):
    """A pixel has no valid observation for some feature in any scene."""


class FeatureName(str, Enum):
    """The ten candidate model inputs. Enumeration order is the canonical
    tie-break order wherever features compete."""

    NDVI = "NDVI"
    EVI = "EVI"
    ENDVI = "ENDVI"
    LSWI = "LSWI"
    Red = "Red"
    Blue = "Blue"
    Green = "Green"
    NIR = "NIR"
    SWIR1 = "SWIR1"
    SWIR2 = "SWIR2"


_INDEX_BANDS = {
    FeatureName.NDVI: ("NIR", "Red"),
    FeatureName.EVI: ("NIR", "Red", "Blue"),
    FeatureName.ENDVI: ("NIR", "Green", "Blue"),
    FeatureName.LSWI: ("NIR", "SWIR1"),
}


@dataclass
class RasterGrid:
    """Dense band grid; ``values[0]`` is the northernmost row."""

    ncols: int
    nrows: int
    xll: float
    yll: float
    cellsize: float
    nodata: float
    values: np.ndarray

    def __post_init__(self):
        if self.ncols < 1 or self.nrows < 1:
            raise DataValidationError("grid must be at least 1x1")
        if self.cellsize <= 0:
            raise DataValidationError("cellsize must be > 0")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.nrows, self.ncols):
            raise DataValidationError(
                f"values shape {self.values.shape} != ({self.nrows}, {self.ncols})"
            )
        bad = ~np.isfinite(self.values) & ~(self.values == self.nodata)
        if bad.any():
            raise DataValidationError("grid contains non-finite values that are not nodata")

    def same_georef(self, other: "RasterGrid") -> bool:
        return (
            self.ncols == other.ncols
            and self.nrows == other.nrows
            and self.xll == other.xll
            and self.yll == other.yll
            and self.cellsize == other.cellsize
        )

    def valid_mask(self) -> np.ndarray:
        return self.values != self.nodata

    def cell_index(self, p: GeoPoint) -> tuple[int, int]:
        """(row, col) of the cell containing ``p``; no interpolation."""
        col = int(np.floor((p.lon_deg - self.xll) / self.cellsize))
        from_bottom = int(np.floor((p.lat_deg - self.yll) / self.cellsize))
        row = self.nrows - 1 - from_bottom
        if not (0 <= col < self.ncols and 0 <= row < self.nrows):
            raise OutOfExtentError(
                f"point ({p.lat_deg}, {p.lon_deg}) outside grid extent"
            )
        return row, col

    def contains(self, p: GeoPoint) -> bool:
        """Whether ``p`` falls in a cell of the grid (see :meth:`cell_index`)."""
        try:
            self.cell_index(p)
        except OutOfExtentError:
            return False
        return True

    def cell_center(self, row: int, col: int) -> GeoPoint:
        lon = self.xll + (col + 0.5) * self.cellsize
        lat = self.yll + (self.nrows - row - 0.5) * self.cellsize
        return GeoPoint(lat, lon)

    def like(self, values: np.ndarray) -> "RasterGrid":
        """New grid sharing this grid's georeferencing."""
        return RasterGrid(
            self.ncols, self.nrows, self.xll, self.yll, self.cellsize, self.nodata, values
        )


def _format_value(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def _format_rows(values: np.ndarray) -> list[str]:
    """One text line per row, each value formatted as :func:`_format_value` does."""
    integral = (np.trunc(values) == values) & (np.abs(values) < 2.0**63)  # false for inf, nan
    if integral.all():
        return [" ".join(map(str, row)) for row in values.astype(np.int64).tolist()]
    return [" ".join(map(_format_value, row)) for row in values.tolist()]


def _twin_path(path: Path) -> Path:
    return path.with_name(path.name + ".f8")


def _twin_digest(text: bytes, payload: bytes) -> bytes:
    digest = hashlib.sha256(text)
    digest.update(payload)
    return digest.hexdigest().encode()


def write_grid(grid: RasterGrid, path: str | Path):
    """Write ``grid`` as text to ``path`` and its binary twin next to it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        f"ncols {grid.ncols}",
        f"nrows {grid.nrows}",
        f"xllcorner {_format_value(grid.xll)}",
        f"yllcorner {_format_value(grid.yll)}",
        f"cellsize {_format_value(grid.cellsize)}",
        f"NODATA_value {_format_value(grid.nodata)}",
    ]
    text = ("\n".join(lines + _format_rows(grid.values)) + "\n").encode()
    path.write_bytes(text)
    payload = (grid.values + 0.0).astype("<f8").tobytes()
    _twin_path(path).write_bytes(_twin_digest(text, payload) + b"\n" + payload)


_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


def _header_value(path: Path, key: str, text: str) -> float:
    try:
        value = parse_int(text) if key in ("ncols", "nrows") else parse_float(text)
    except ValueError:
        raise GridFormatError(f"{path}: {key} {text!r} is not a valid value") from None
    if not np.isfinite(value):
        raise GridFormatError(f"{path}: {key} {text!r} is not finite")
    if key in ("ncols", "nrows") and value < 1:
        raise GridFormatError(f"{path}: {key} {text!r} is not a positive count")
    return value


def _twin_values(path: Path, text: bytes, ncols: int, nrows: int) -> np.ndarray | None:
    """The body of the grid ``text`` from its twin, or None without a valid twin."""
    try:
        twin = read_input(_twin_path(path), "grid twin", GridFormatError)
    except GridFormatError:
        return None
    digest, _, payload = twin.partition(b"\n")
    if len(payload) != 8 * ncols * nrows or digest != _twin_digest(text, payload):
        return None
    return np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(nrows, ncols)


_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # where str.splitlines splits
#: One line and its break; the last match is the empty one at the end of the text.
_LINE = re.compile(f"([^{_BREAKS}]*)(\r\n|[{_BREAKS}]|\\Z)")


def _parse_body(path: Path, lines: list[str], ncols: int, nrows: int) -> np.ndarray:
    rows = [tokens for tokens in (line.split() for line in lines) if tokens]
    for n, tokens in enumerate(rows):
        if len(tokens) != ncols:
            raise GridFormatError(f"{path}: row {n} has {len(tokens)} values, expected {ncols}")
    if len(rows) != nrows:
        raise GridFormatError(f"{path}: found {len(rows)} rows, expected {nrows}")
    tokens = [t for tokens in rows for t in tokens]
    try:
        check_floats(tokens)
        values = np.array(tokens, dtype=np.float64)
    except ValueError as exc:
        raise GridFormatError(f"{path}: {exc}") from None
    return values.reshape(nrows, ncols)


def read_grid(path: str | Path, scale: float | None = None) -> RasterGrid:
    """Read a grid file; ``scale`` multiplies non-nodata values on ingest.

    ``ncols``/``nrows`` must be integers, every header value finite and
    every body token a number, all in the ASCII grammar of
    :data:`errors.INT` and :data:`errors.FLOAT`; anything else is a
    :class:`GridFormatError`.
    The body comes from the grid's binary twin when that twin matches the
    text (see the module docstring), else from the text.
    """
    path = Path(path)
    text = read_input_text(path, "grid", GridFormatError)
    header: dict[str, float] = {}
    body = 0  # offset of the text after the header
    for n, m in enumerate(_LINE.finditer(text), start=1):
        if len(header) == len(_HEADER_KEYS) or m.start() == len(text):
            break
        line, body = m.group(1), m.end()
        parts = line.split()
        if len(parts) != 2 or parts[0].lower() not in _HEADER_KEYS:
            raise GridFormatError(f"{path}: bad header line {n}: {line!r}")
        key = parts[0].lower()
        header[key] = _header_value(path, key, parts[1])
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise GridFormatError(f"{path}: missing header keys {missing}")
    ncols, nrows = header["ncols"], header["nrows"]
    values = _twin_values(path, text.encode(), ncols, nrows)
    if values is None:
        values = _parse_body(path, text[body:].splitlines(), ncols, nrows)
    nodata = header["nodata_value"]
    if scale is not None:
        values = np.where(values == nodata, nodata, values * scale)
    return RasterGrid(
        ncols, nrows, header["xllcorner"], header["yllcorner"], header["cellsize"], nodata, values
    )


def _feature_arrays(kind: FeatureName, bands: Mapping[str, tuple[np.ndarray, np.ndarray]]):
    """(values, valid) of one feature from (values, valid) arrays of its bands.

    A cell is valid where every band the feature reads is valid and, for
    an index, the denominator is usable. This is the one definition of
    feature validity; :func:`compute_index` and :class:`SceneStack` share it.
    """
    if kind not in _INDEX_BANDS:
        return bands[kind.value]
    b = {name: bands[name][0] for name in _INDEX_BANDS[kind]}
    nir = b["NIR"]
    if kind == FeatureName.NDVI:
        num, den = nir - b["Red"], nir + b["Red"]
    elif kind == FeatureName.EVI:
        num, den = 2.5 * (nir - b["Red"]), nir + 6.0 * b["Red"] - 7.0 * b["Blue"] + 1.0
    elif kind == FeatureName.ENDVI:
        s = nir + b["Green"]
        num, den = s - 2.0 * b["Blue"], s + 2.0 * b["Blue"]
    else:
        num, den = nir - b["SWIR1"], nir + b["SWIR1"]
    ok = np.abs(den) >= DENOMINATOR_EPS
    out = np.where(ok, num / np.where(ok, den, 1.0), 0.0)
    return out, np.logical_and.reduce([ok] + [bands[name][1] for name in _INDEX_BANDS[kind]])


def compute_index(kind: FeatureName, bands: Mapping[str, RasterGrid]) -> RasterGrid:
    """Evaluate one vegetation index over co-registered band grids.

    Nodata propagates: any nodata input band, or a vanishing
    denominator, yields nodata in the output cell.
    """
    if kind not in _INDEX_BANDS:
        raise MissingBandError(f"{kind.value} is not a computable index")
    needed = _INDEX_BANDS[kind]
    for name in needed:
        if name not in bands:
            raise MissingBandError(f"{kind.value} requires band {name}")
    ref = bands[needed[0]]
    for name in needed:
        if not bands[name].same_georef(ref):
            raise GeoreferenceMismatchError(f"band {name} is not co-registered")
    out, valid = _feature_arrays(
        kind, {name: (bands[name].values, bands[name].valid_mask()) for name in needed}
    )
    return ref.like(np.where(valid, out, ref.nodata))


def sample_pixel(grid: RasterGrid, p: GeoPoint) -> float:
    """Value of the cell containing ``p``."""
    row, col = grid.cell_index(p)
    return float(grid.values[row, col])


@dataclass(frozen=True)
class SceneManifest:
    """One acquisition date: six band grid paths plus a QA grid path.

    ``scale`` turns the band grids' stored values into reflectance; None
    means they hold reflectance already.
    """

    scene_date: datetime.date
    band_paths: dict[str, str]
    qa_path: str
    scale: float | None = None

    def __post_init__(self):
        missing = [b for b in BAND_NAMES if b not in self.band_paths]
        if missing:
            raise DataValidationError(f"manifest missing bands {missing}")


def write_manifest(manifest: SceneManifest, path: str | Path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"date={manifest.scene_date.isoformat()}"]
    if manifest.scale is not None:
        lines.append(f"scale={manifest.scale!r}")
    for band in BAND_NAMES:
        lines.append(f"band.{band}={manifest.band_paths[band]}")
    lines.append(f"qa={manifest.qa_path}")
    path.write_text("\n".join(lines) + "\n")


def read_manifest(path: str | Path) -> SceneManifest:
    """Parse a manifest; relative grid paths resolve against its directory."""
    path = Path(path)
    base = path.parent
    date = scale = None
    band_paths: dict[str, str] = {}
    qa_path = None
    text = read_input_text(path, "manifest", GridFormatError)
    for n, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise GridFormatError(f"{path}: bad manifest line {n}: {line!r}")
        key, value = line.split("=", 1)
        if key == "date":
            try:
                date = parse_date(value, "YYYY-MM-DD")
            except ValueError:
                raise GridFormatError(f"{path}: line {n}: bad date {value!r}") from None
        elif key == "scale":
            try:
                scale = parse_float(value)
            except ValueError:
                scale = 0.0
            if not 0.0 < scale < np.inf:
                raise GridFormatError(
                    f"{path}: line {n}: scale {value!r} is not a positive finite number"
                )
        elif key.startswith("band."):
            band_paths[key[len("band.") :]] = str((base / value))
        elif key == "qa":
            qa_path = str(base / value)
        else:
            raise GridFormatError(f"{path}: unknown manifest key {key!r}")
    if date is None or qa_path is None:
        raise GridFormatError(f"{path}: manifest needs date= and qa= lines")
    return SceneManifest(date, band_paths, qa_path, scale)


def _gap_fill(x: np.ndarray, values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Fill the unobserved entries of series running along axis 0.

    Each masked entry is interpolated linearly in ``x`` between the
    nearest observed entries before and after it; before the first and
    after the last observation the nearest observed value is held.
    Observed entries are copied through, and series without any
    observation are returned unchanged. Per series this equals
    ``np.interp(x, x[valid], values[valid])`` bit for bit, given
    strictly increasing ``x``.
    """
    T = values.shape[0]
    steps = np.arange(T).reshape((T,) + (1,) * (values.ndim - 1))
    prev = np.maximum.accumulate(np.where(valid, steps, -1), axis=0)
    nxt = np.minimum.accumulate(np.where(valid, steps, T)[::-1], axis=0)[::-1]
    gap = ~valid & (prev[-1] >= 0)
    t, *cell = np.nonzero(gap)
    lo, hi = prev[gap], nxt[gap]
    lo = np.where(lo < 0, hi, lo)
    hi = np.where(hi == T, lo, hi)
    y0, y1 = values[(lo, *cell)], values[(hi, *cell)]
    inner = lo != hi
    x0 = x[lo[inner]]
    slope = (y1[inner] - y0[inner]) / (x[hi[inner]] - x0)
    y0[inner] = slope * (x[t[inner]] - x0) + y0[inner]
    filled = values.copy()
    filled[gap] = y0
    return filled


def _band_cubes(manifests: Sequence[SceneManifest], name: str, template: RasterGrid):
    """(values, not-nodata) cubes of one band, its grids read and scaled."""
    grids = []
    for manifest in manifests:
        grid = read_grid(manifest.band_paths[name], scale=manifest.scale)
        if not grid.same_georef(template):
            raise GeoreferenceMismatchError(
                f"band {name} of {manifest.scene_date} is not co-registered"
            )
        grids.append(grid)
    return np.stack([g.values for g in grids]), np.stack([g.valid_mask() for g in grids])


class SceneStack:
    """The temporal-spectral stack of a campaign: T dates by F features.

    :meth:`from_manifests` reads every grid the features need and builds
    each feature's (values, observed) cube; after that the stack reads no
    file and changes no state, so forked workers read it as built. A feature is
    observed in a cell where the QA is clear (0), none of the feature's
    own bands is nodata and, for an index, the denominator is usable.
    """

    def __init__(
        self,
        dates: Sequence[datetime.date],
        template: RasterGrid,
        planes: dict[FeatureName, tuple[np.ndarray, np.ndarray]],
    ):
        self.dates = tuple(dates)
        self.template = template
        self.features = tuple(planes)
        self._planes = planes
        self._x = np.array([d.toordinal() for d in self.dates], dtype=np.float64)

    @classmethod
    def from_manifests(
        cls, manifests: Sequence[SceneManifest], features: Sequence[FeatureName]
    ) -> "SceneStack":
        """Read the QA grids, then each feature's bands (each band once,
        scaled by its manifest's ``scale``) and build that feature's cubes."""
        features = tuple(features)
        if not features:
            raise DataValidationError("feature list must be nonempty")
        for n, feature in enumerate(features):
            if feature in features[:n]:
                raise DataValidationError(f"feature {feature.value} is listed twice")
        if not manifests:
            raise DataValidationError("no scenes given")
        dates = [m.scene_date for m in manifests]
        if any(later <= earlier for earlier, later in zip(dates, dates[1:])):
            raise DataValidationError("scenes must be sorted by date, one scene per date")
        qa = [read_grid(m.qa_path) for m in manifests]
        if not all(grid.same_georef(qa[0]) for grid in qa):
            raise GeoreferenceMismatchError("scene grids are not co-registered")
        template, clear = qa[0], np.stack([grid.values == 0 for grid in qa])
        del qa  # only the mask is kept while the bands are read
        bands: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        planes = {}
        for feature in features:
            names = _INDEX_BANDS.get(feature, (feature.value,))
            for name in names:
                if name not in bands:
                    bands[name] = _band_cubes(manifests, name, template)
            values, valid = _feature_arrays(feature, {n: bands[n] for n in names})
            planes[feature] = (values, valid & clear)
        return cls(dates, template, planes)

    @property
    def n_scenes(self) -> int:
        return len(self.dates)

    def feature_plane(self, feature: FeatureName) -> tuple[np.ndarray, np.ndarray]:
        """(values, observed) cubes of shape (T, nrows, ncols) for one feature."""
        return self._planes[feature]

    def fill_cells(self, rows, cols):
        """Gap-filled series of the cells ``[rows, cols]`` for the stack's features.

        ``rows`` and ``cols`` index the raster as in numpy: two ints, two
        slices (a block) or two equal-length integer arrays (scattered
        cells). Returns ``(matrix, observed, usable)``: ``matrix`` and
        ``observed`` have shape ``cells + (T, F)``; ``usable`` (shape
        ``cells``) is false where some feature has no observation in any
        scene, and those cells' matrix entries are meaningless.
        """
        filled, observed = [], []
        for values, valid in self._planes.values():
            valid = valid[:, rows, cols]
            filled.append(_gap_fill(self._x, values[:, rows, cols], valid))
            observed.append(valid)
        matrix = np.moveaxis(np.stack(filled, axis=-1), 0, -2)
        observed = np.moveaxis(np.stack(observed, axis=-1), 0, -2)
        return matrix, observed, observed.any(axis=-2).all(axis=-1)

    def stack_at_cell(self, row: int, col: int) -> tuple[np.ndarray, np.ndarray]:
        """Gap-filled (T, F) matrix and observed mask at one raster cell."""
        matrix, observed, usable = self.fill_cells(row, col)
        if not usable:
            feature = self.features[int(np.argmin(observed.any(axis=0)))]
            raise UnusablePixelError(
                f"cell ({row}, {col}) has no valid {feature.value} observation"
            )
        return matrix, observed
