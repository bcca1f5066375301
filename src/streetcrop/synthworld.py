"""Deterministic synthetic landscape for end-to-end verification.

A world is a square raster of parcels separated by roads, laid out near
the equator so the meter/degree conversion is the same on both axes and
parcel edges align exactly with raster cells. Every crop class gets a
procedural street-level texture (base color, row-stripe frequency,
speckle) and a piecewise-linear per-band phenology curve, so the image
classifier and the pixel classifier both have honestly learnable but
nontrivial signal. Roads and non-crop parcels carry the "others" class.

The geometry is fixed, as in the paper's Landsat-class setting: 30 m
cells (``CELL_M``), roads one cell wide (``ROAD_CELLS``), 32 px street
images (``IMAGE_PX``) and ten 2013 scene dates (``SCENE_DATES``). The
``truth`` and ``road_mask`` rasters are the whole world model: a
camera's view is read off them cell by cell (:func:`facing_class`).

Everything is a pure function of (config, seed): worlds, rendered
images and synthesized scenes are bit-identical across runs.
"""

from __future__ import annotations

import datetime
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataValidationError
from .geocore import METERS_PER_DEGREE, BoundingBox, GeoPoint, Heading
from .imageclassifier import LabeledImage, LabelTaxonomy, largest_remainder, write_catalog
from .imagery import StreetImageRecord, write_fixture
from .rasterstack import BAND_NAMES, RasterGrid, SceneManifest, write_grid, write_manifest

NODATA = -9999.0
CELL_M = 30.0
ROAD_CELLS = 1
ROAD_WIDTH_M = ROAD_CELLS * CELL_M
CELLSIZE_DEG = CELL_M / METERS_PER_DEGREE
IMAGE_PX = 32
#: Band grids store ``round(reflectance / REFLECTANCE_SCALE)``, as Landsat
#: surface-reflectance products do; each scene manifest states the scale.
REFLECTANCE_SCALE = 0.0001
#: Cells along each side of the largest world: about 34 MB per float64 raster.
MAX_WORLD_CELLS = 2048
#: Acquisition dates every 21 days from early April to mid October
#: (days of year 96 to 285).
SCENE_DATES = tuple(
    datetime.date(2013, 1, 1) + datetime.timedelta(days=doy - 1) for doy in range(96, 286, 21)
)

#: Street images are dated mid-season, at the middle scene date.
CAPTURE_DATE = SCENE_DATES[len(SCENE_DATES) // 2]
#: Render seeds of the training catalog and of the campaign fixtures: a view
#: in both gets different speckle in each.
TRAINING_RENDER_SEED = 1
CAMPAIGN_RENDER_SEED = 2


@dataclass(frozen=True)
class WorldConfig:
    """A world's inputs; its size in cells and its extent derive from them.

    Empty ``proportions`` mean equal weights; a zero weight leaves a class
    out. Each error names the ``synth.*`` key that sets the field at fault.
    """

    taxonomy: LabelTaxonomy
    parcels_per_side: int = 22
    parcel_cells: int = 8
    proportions: tuple[float, ...] = ()
    noise_sigma: float = 0.01
    cloud_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        n = len(self.taxonomy)
        weights = tuple(self.proportions) or (1.0 / n,) * n
        object.__setattr__(self, "proportions", weights)
        if self.parcels_per_side < 1:
            raise DataValidationError("synth.parcels_per_side must be at least 1")
        if self.parcel_cells < 2:
            raise DataValidationError("synth.parcel_cells must be at least 2 raster cells")
        if self.cells > MAX_WORLD_CELLS:
            raise DataValidationError(
                f"a world of {self.cells} cells per side exceeds {MAX_WORLD_CELLS}: "
                "lower synth.parcels_per_side or synth.parcel_cells"
            )
        if len(weights) != n:
            raise DataValidationError(
                f"synth.proportions has {len(weights)} weights; region {self.taxonomy.region} "
                f"needs {n}, one per class of {', '.join(self.taxonomy.class_names)}"
            )
        if any(p < 0 for p in weights):
            raise DataValidationError("synth.proportions must be non-negative")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise DataValidationError("synth.proportions must sum to 1")
        if self.noise_sigma < 0:
            raise DataValidationError("synth.noise_sigma must be non-negative")
        if not 0.0 <= self.cloud_fraction < 1.0:
            raise DataValidationError("synth.cloud_fraction must lie in [0, 1)")

    @property
    def period_cells(self) -> int:
        return self.parcel_cells + ROAD_CELLS

    @property
    def cells(self) -> int:
        """Cells along each side: roads border every parcel row and column."""
        return self.parcels_per_side * self.period_cells + ROAD_CELLS

    @property
    def extent(self) -> BoundingBox:
        """South-west corner at (0, 0): on the equator a meter is the same
        fraction of a degree east as north."""
        span = self.cells * CELLSIZE_DEG
        return BoundingBox(0.0, span, 0.0, span)


# --------------------------------------------------------------------------
# Phenology: piecewise-linear (day-of-year, reflectance) nodes per band.
# Annual crops get staggered NIR bells; perennials get broad plateaus
# with distinct SWIR levels. Values chosen for >= 5 sigma separation at
# the default noise level, not for radiometric realism.
# --------------------------------------------------------------------------

_FLAT = lambda v: ((1, v), (365, v))  # noqa: E731 - tiny curve helper

DEFAULT_PHENOLOGY: dict[str, dict[str, tuple[tuple[int, float], ...]]] = {
    "others": {
        "Blue": _FLAT(0.08),
        "Green": _FLAT(0.10),
        "Red": _FLAT(0.12),
        "NIR": _FLAT(0.18),
        "SWIR1": _FLAT(0.25),
        "SWIR2": _FLAT(0.22),
    },
    "corn": {
        "Blue": ((1, 0.06), (150, 0.06), (200, 0.03), (280, 0.06), (365, 0.06)),
        "Green": ((1, 0.09), (150, 0.09), (200, 0.07), (280, 0.09), (365, 0.09)),
        "Red": ((1, 0.12), (140, 0.12), (200, 0.04), (260, 0.10), (365, 0.12)),
        "NIR": ((1, 0.16), (140, 0.18), (200, 0.56), (260, 0.25), (365, 0.16)),
        "SWIR1": ((1, 0.22), (140, 0.22), (200, 0.15), (260, 0.21), (365, 0.22)),
        "SWIR2": ((1, 0.16), (140, 0.16), (200, 0.09), (260, 0.15), (365, 0.16)),
    },
    "soybean": {
        "Blue": ((1, 0.07), (170, 0.07), (230, 0.04), (290, 0.07), (365, 0.07)),
        "Green": ((1, 0.10), (170, 0.10), (230, 0.08), (290, 0.10), (365, 0.10)),
        "Red": ((1, 0.13), (170, 0.13), (230, 0.05), (280, 0.11), (365, 0.13)),
        "NIR": ((1, 0.15), (170, 0.17), (230, 0.46), (280, 0.22), (365, 0.15)),
        "SWIR1": ((1, 0.20), (170, 0.20), (230, 0.11), (280, 0.19), (365, 0.20)),
        "SWIR2": ((1, 0.14), (170, 0.14), (230, 0.05), (280, 0.13), (365, 0.14)),
    },
    "cotton": {
        "Blue": ((1, 0.08), (190, 0.08), (250, 0.05), (310, 0.08), (365, 0.08)),
        "Green": ((1, 0.11), (190, 0.11), (250, 0.09), (310, 0.11), (365, 0.11)),
        "Red": ((1, 0.14), (190, 0.14), (250, 0.07), (300, 0.12), (365, 0.14)),
        "NIR": ((1, 0.17), (190, 0.19), (250, 0.44), (300, 0.24), (365, 0.17)),
        "SWIR1": ((1, 0.30), (190, 0.30), (250, 0.24), (300, 0.29), (365, 0.30)),
        "SWIR2": ((1, 0.24), (190, 0.24), (250, 0.19), (300, 0.23), (365, 0.24)),
    },
    "alfalfa": {
        "Blue": _FLAT(0.04),
        "Green": ((1, 0.08), (90, 0.09), (365, 0.08)),
        "Red": ((1, 0.06), (90, 0.05), (365, 0.06)),
        "NIR": ((1, 0.34), (90, 0.40), (300, 0.38), (365, 0.34)),
        "SWIR1": _FLAT(0.12),
        "SWIR2": _FLAT(0.07),
    },
    "grape": {
        "Blue": _FLAT(0.07),
        "Green": ((1, 0.09), (120, 0.10), (365, 0.09)),
        "Red": ((1, 0.11), (120, 0.09), (300, 0.10), (365, 0.11)),
        "NIR": ((1, 0.18), (120, 0.30), (290, 0.28), (330, 0.18), (365, 0.18)),
        "SWIR1": _FLAT(0.22),
        "SWIR2": _FLAT(0.16),
    },
    "almond": {
        "Blue": _FLAT(0.05),
        "Green": ((1, 0.09), (70, 0.10), (365, 0.09)),
        "Red": ((1, 0.10), (70, 0.07), (330, 0.08), (365, 0.10)),
        "NIR": ((1, 0.20), (70, 0.42), (300, 0.40), (340, 0.22), (365, 0.20)),
        "SWIR1": _FLAT(0.17),
        "SWIR2": _FLAT(0.20),
    },
    "pistachio": {
        "Blue": _FLAT(0.06),
        "Green": ((1, 0.10), (110, 0.11), (365, 0.10)),
        "Red": ((1, 0.12), (110, 0.08), (320, 0.09), (365, 0.12)),
        "NIR": ((1, 0.19), (110, 0.34), (300, 0.33), (340, 0.20), (365, 0.19)),
        "SWIR1": _FLAT(0.31),
        "SWIR2": _FLAT(0.28),
    },
}


def phenology_value(class_name: str, band: str, doy) -> np.ndarray:
    """Reflectance of one class/band at the given day(s) of year."""
    curve = DEFAULT_PHENOLOGY[class_name][band]
    xs = np.array([p[0] for p in curve], dtype=np.float64)
    ys = np.array([p[1] for p in curve], dtype=np.float64)
    return np.interp(np.asarray(doy, dtype=np.float64), xs, ys)


# --------------------------------------------------------------------------
# World generation
# --------------------------------------------------------------------------


@dataclass
class World:
    cfg: WorldConfig
    truth: RasterGrid
    road_mask: RasterGrid
    parcel_classes: np.ndarray  # (parcels_per_side, parcels_per_side) class indices

    @property
    def taxonomy(self) -> LabelTaxonomy:
        return self.cfg.taxonomy

    def road_cell_centers(self) -> list[tuple[int, int]]:
        rows, cols = np.nonzero(self.road_mask.values == 1)
        return list(zip(rows.tolist(), cols.tolist()))


def generate_world(cfg: WorldConfig) -> World:
    """Build the parcel landscape and its truth/road rasters.

    Parcel class counts follow the configured proportions to within one
    parcel (largest-remainder allocation, then a seeded shuffle places
    them on the parcel grid).
    """
    n = cfg.parcels_per_side
    counts = largest_remainder(cfg.proportions, n * n)
    assignment = np.repeat(np.arange(len(counts)), counts)
    rng = np.random.default_rng([cfg.seed, 0xA11])
    rng.shuffle(assignment)
    parcel_classes = assignment.reshape(n, n)

    cell = np.arange(cfg.cells)
    road = (cell % cfg.period_cells) < ROAD_CELLS
    is_road = road[:, None] | road[None, :]
    parcel = np.maximum((cell - ROAD_CELLS) // cfg.period_cells, 0)
    truth_values = parcel_classes[parcel[:, None], parcel[None, :]].astype(np.float64)
    truth_values[is_road] = cfg.taxonomy.others_index

    e = cfg.extent
    truth = RasterGrid(
        cfg.cells, cfg.cells, e.min_lon_deg, e.min_lat_deg, CELLSIZE_DEG, NODATA, truth_values
    )
    road_mask = truth.like(is_road.astype(np.float64))
    return World(cfg, truth, road_mask, parcel_classes)


# --------------------------------------------------------------------------
# Street-level rendering
# --------------------------------------------------------------------------

#: (base RGB, stripe frequency, speckle amplitude) per class texture.
TEXTURES: dict[str, tuple[tuple[float, float, float], float, float]] = {
    "corn": ((0.82, 0.72, 0.20), 6.0, 0.05),
    "soybean": ((0.18, 0.52, 0.16), 10.0, 0.05),
    "cotton": ((0.86, 0.86, 0.88), 4.0, 0.06),
    "alfalfa": ((0.10, 0.45, 0.32), 0.0, 0.05),
    "grape": ((0.42, 0.16, 0.44), 3.0, 0.06),
    "almond": ((0.46, 0.32, 0.16), 2.0, 0.06),
    "pistachio": ((0.58, 0.66, 0.28), 2.5, 0.05),
    "others": ((0.52, 0.52, 0.52), 0.0, 0.12),
}

SKY_FRACTION = 0.35
#: (row, col) step of one cell along each heading; row 0 is northernmost.
_CELL_STEP = {
    Heading.NORTH: (-1, 0),
    Heading.EAST: (0, 1),
    Heading.SOUTH: (1, 0),
    Heading.WEST: (0, -1),
}


def _image_rng(cfg_seed: int, seed: int, p: GeoPoint, h: Heading) -> np.random.Generator:
    key = f"{cfg_seed}|{seed}|{p.lat_deg:.6f}|{p.lon_deg:.6f}|{int(h)}"
    return np.random.default_rng(zlib.crc32(key.encode("ascii")))


def facing_class(world: World, p: GeoPoint, h: Heading) -> int:
    """Class of the first non-road cell among the ``ROAD_CELLS + 2`` cells
    past the camera's own cell along the view direction.

    Falls back to "others" when every cell in reach is road (as when
    looking down the road axis) or the view leaves the world.
    """
    row, col = world.truth.cell_index(p)
    d_row, d_col = _CELL_STEP[h]
    for k in range(1, ROAD_CELLS + 3):
        r, c = row + k * d_row, col + k * d_col
        if not (0 <= r < world.truth.nrows and 0 <= c < world.truth.ncols):
            break
        if world.road_mask.values[r, c] != 1:
            return int(world.truth.values[r, c])
    return world.taxonomy.others_index


def render_street_image(world: World, p: GeoPoint, h: Heading, seed: int = 0) -> np.ndarray:
    """Procedural roadside view, ``IMAGE_PX`` square: sky band over the
    facing class texture, as ``(h, w, 3)`` uint8 pixels in 1/255 steps."""
    row_mask, col_mask = world.truth.cell_index(p)
    if world.road_mask.values[row_mask, col_mask] != 1:
        raise DataValidationError("camera point is not on a road cell")
    size = IMAGE_PX
    cls = facing_class(world, p, h)
    base, freq, speckle = TEXTURES[world.taxonomy.class_names[cls]]
    rng = _image_rng(world.cfg.seed, seed, p, h)

    img = np.empty((size, size, 3))
    sky_rows = max(1, int(SKY_FRACTION * size))
    t = np.linspace(0.0, 1.0, sky_rows)[:, None]
    sky_top = np.array([0.55, 0.70, 0.90])
    sky_bottom = np.array([0.78, 0.86, 0.95])
    img[:sky_rows] = (sky_top * (1 - t) + sky_bottom * t)[:, None, :]

    field_rows = size - sky_rows
    rr = np.linspace(0.0, 1.0, field_rows)[:, None, None]
    stripes = 1.0 + 0.22 * np.sin(2.0 * np.pi * freq * rr)
    field = np.asarray(base)[None, None, :] * stripes
    field = field + rng.uniform(-speckle, speckle, size=(field_rows, size, 3))
    img[sky_rows:] = field
    return np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)


# --------------------------------------------------------------------------
# Scene synthesis
# --------------------------------------------------------------------------


def synthesize_scenes(world: World, out_dir: str | Path) -> list[SceneManifest]:
    """Write per-date band + QA grids and manifests; returns the manifests.

    Band reflectance = class phenology + Gaussian noise (clipped to
    [0, 1]), stored as integers at ``REFLECTANCE_SCALE``; QA masks a
    seeded ``cloud_fraction`` of cells with value 1.
    """
    cfg = world.cfg
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([cfg.seed, 0x5CE])
    class_idx = np.rint(world.truth.values).astype(np.int64)
    manifests = []
    for date in SCENE_DATES:
        doy = date.timetuple().tm_yday
        band_paths = {}
        for band in BAND_NAMES:
            per_class = np.array(
                [
                    phenology_value(name, band, doy)
                    for name in world.taxonomy.class_names
                ]
            )
            values = per_class[class_idx]
            if cfg.noise_sigma > 0:
                values = values + rng.normal(0.0, cfg.noise_sigma, size=values.shape)
            values = np.rint(np.clip(values, 0.0, 1.0) / REFLECTANCE_SCALE)
            name = f"{date.isoformat()}_{band}.grid"
            write_grid(world.truth.like(values), out_dir / name)
            band_paths[band] = name
        qa_values = (rng.random(class_idx.shape) < cfg.cloud_fraction).astype(np.float64)
        qa_name = f"{date.isoformat()}_qa.grid"
        write_grid(world.truth.like(qa_values), out_dir / qa_name)
        manifest = SceneManifest(date, band_paths, qa_name, REFLECTANCE_SCALE)
        write_manifest(manifest, out_dir / f"{date.isoformat()}.manifest")
        manifests.append(SceneManifest(
            date,
            {b: str(out_dir / p) for b, p in band_paths.items()},
            str(out_dir / qa_name),
            REFLECTANCE_SCALE,
        ))
    return manifests


# --------------------------------------------------------------------------
# Image campaigns
# --------------------------------------------------------------------------


def _camera_record(world: World, row: int, col: int, h: Heading, images_dir: Path):
    """Render one view and store it in fixture layout under ``images_dir``."""
    point = world.truth.cell_center(row, col)
    image = render_street_image(world, point, h, seed=TRAINING_RENDER_SEED)
    path = write_fixture(images_dir, point, h, image)
    return StreetImageRecord(
        id=path.stem,
        capture_point=point,
        heading=h,
        capture_date=CAPTURE_DATE,
        path=path,
    )


def build_training_catalog(world: World, out_dir: str | Path, n_per_class: int) -> Path:
    """Hand-label-grade catalog: ``n_per_class`` rendered images per class.

    Candidate (road cell, heading) pairs are bucketed by facing class,
    then a seeded shuffle picks the requested number from each bucket.
    Every bucket is checked before any file is written. Images land in
    ``out_dir/images`` and the catalog in ``out_dir/catalog.csv``.
    """
    if n_per_class < 1:
        raise DataValidationError(f"n_per_class must be >= 1, got {n_per_class}")
    out_dir = Path(out_dir)
    images_dir = out_dir / "images"
    buckets: dict[int, list[tuple[int, int, Heading]]] = {
        i: [] for i in range(len(world.taxonomy))
    }
    for row, col in world.road_cell_centers():
        point = world.truth.cell_center(row, col)
        for h in Heading:
            buckets[facing_class(world, point, h)].append((row, col, h))
    for label, candidates in buckets.items():
        if len(candidates) < n_per_class:
            raise DataValidationError(
                f"only {len(candidates)} candidate views of class "
                f"{world.taxonomy.class_names[label]}; synth.n_per_class needs {n_per_class}"
            )
    rng = np.random.default_rng([world.cfg.seed, TRAINING_RENDER_SEED, 0xCA7])
    labeled = []
    for label, candidates in buckets.items():
        picks = rng.permutation(len(candidates))[:n_per_class]
        for k in picks:
            row, col, h = candidates[k]
            record = _camera_record(world, row, col, h, images_dir)
            labeled.append(LabeledImage(record, label))
    catalog = out_dir / "catalog.csv"
    write_catalog(labeled, world.taxonomy, catalog)
    return catalog


def build_campaign_fixtures(world: World, fixtures_dir: str | Path, stride: int) -> int:
    """Write street-image fixtures at every ``stride``-th road cell.

    All four headings are rendered per camera point, mimicking an
    unlabeled roadside collection over the study area. Returns the
    number of images written.
    """
    if stride < 1:
        raise DataValidationError("stride must be >= 1")
    count = 0
    for k, (row, col) in enumerate(world.road_cell_centers()):
        if k % stride:
            continue
        point = world.truth.cell_center(row, col)
        for h in Heading:
            image = render_street_image(world, point, h, seed=CAMPAIGN_RENDER_SEED)
            write_fixture(fixtures_dir, point, h, image, date=CAPTURE_DATE)
            count += 1
    return count
