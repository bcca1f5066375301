"""Turn QC-passed labeled images into in-parcel reference points.

Each kept image yields one point shifted from the camera into the
parcel it was facing. Classes that come up short of a requested minimum
are topped up by walking additional whole pixel-steps deeper into the
parcel from the same images (capped, so augmentation cannot march out
of a parcel). Points can be validated against an independent truth
raster, which is how the whole referencing idea earns its keep.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataValidationError, parse_float, parse_int
from .geocore import GeoPoint, ShiftParams, shift_to_parcel
from .imageclassifier import LabeledImage, LabelTaxonomy, read_csv_rows
from .metrics import AgreementReport, agreement_report
from .rasterstack import RasterGrid

#: Augmentation never walks beyond this many extra pixel-steps.
MAX_EXTRA_STEPS = 3


@dataclass(frozen=True)
class ReferencePoint:
    """A crop-labeled in-parcel coordinate with provenance.

    ``shift_m`` is the displacement actually applied from the source
    camera point (0 for points sampled directly from a raster).
    """

    location: GeoPoint
    label: int
    source_image_id: str
    shift_m: float
    extra_steps: int
    confidence: float | None = None


@dataclass
class ReferenceGenerationResult:
    points: list[ReferencePoint]
    per_class_counts: dict[int, int]
    short_classes: dict[int, int]  # class index -> achieved count, still < minimum
    dropped_outside: int = 0  # points that fell outside the world's grid


def _point_from_image(li: LabeledImage, sp: ShiftParams) -> ReferencePoint:
    location = shift_to_parcel(li.record.capture_point, li.record.heading, sp)
    return ReferencePoint(
        location=location,
        label=li.label,
        source_image_id=li.record.id,
        shift_m=sp.shift_m,
        extra_steps=sp.extra_steps,
        confidence=li.confidence,
    )


def generate_reference_points(
    kept: Sequence[LabeledImage],
    sp: ShiftParams,
    min_per_class: int = 0,
    world: RasterGrid | None = None,
) -> ReferenceGenerationResult:
    """One shifted point per kept image, plus step-augmented extras.

    A class with fewer than ``min_per_class`` base points gains points
    re-derived from its images at ``extra_steps`` 1, 2, ... up to
    ``MAX_EXTRA_STEPS``, never duplicating an (image, extra_steps)
    pair. Classes still short afterwards are reported, not an error.
    When ``world`` (a grid covering the study area) is given, a point
    outside it, such as one shifted from an edge camera facing out, is
    dropped and counted in ``dropped_outside``, not in its class.
    """
    points: list[ReferencePoint] = []
    by_class: dict[int, list[LabeledImage]] = {}
    for li in kept:
        by_class.setdefault(li.label, []).append(li)
    counts = dict.fromkeys(by_class, 0)
    dropped = 0

    def place(li: LabeledImage, params: ShiftParams):
        nonlocal dropped
        point = _point_from_image(li, params)
        if world is None or world.contains(point.location):
            points.append(point)
            counts[li.label] += 1
        else:
            dropped += 1

    for li in kept:
        place(li, sp)
    for label in sorted(by_class):
        step = sp.extra_steps
        while counts[label] < min_per_class and step < MAX_EXTRA_STEPS:
            step += 1
            stepped = replace(sp, extra_steps=step)
            for li in by_class[label]:
                place(li, stepped)
                if counts[label] >= min_per_class:
                    break
    short = {c: n for c, n in counts.items() if n < min_per_class}
    return ReferenceGenerationResult(points, counts, short, dropped)


def sample_class_points(
    truth: RasterGrid, label: int, count: int, seed: int
) -> list[ReferencePoint]:
    """Reference points sampled straight off a truth raster's cells.

    Used to source "others" training points from non-crop cells, which
    street imagery cannot provide (an "others" photo names no parcel).
    """
    matches = np.argwhere(truth.values == label)
    if len(matches) < count:
        raise DataValidationError(
            f"truth raster has only {len(matches)} cells of class {label}, need {count}"
        )
    rng = np.random.default_rng(seed)
    picks = rng.permutation(len(matches))[:count]
    points = []
    for k in picks:
        row, col = (int(v) for v in matches[k])
        points.append(
            ReferencePoint(
                location=truth.cell_center(row, col),
                label=label,
                source_image_id=f"raster_{row}_{col}",
                shift_m=0.0,
                extra_steps=0,
            )
        )
    return points


def validate_reference_points(
    points: Sequence[ReferencePoint], truth: RasterGrid, taxonomy: LabelTaxonomy
) -> tuple[AgreementReport, list[ReferencePoint]]:
    """Agreement against a truth raster plus the disagreeing points."""
    return agreement_report(points, truth, taxonomy.class_names)


# --------------------------------------------------------------------------
# Reference-point CSV
# --------------------------------------------------------------------------

REFERENCE_HEADER = ["lat", "lon", "label", "source_image", "confidence", "shift_m", "extra_steps"]


def write_reference_csv(
    points: Sequence[ReferencePoint], taxonomy: LabelTaxonomy, path: str | Path
):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REFERENCE_HEADER)
        for pt in points:
            writer.writerow(
                [
                    repr(pt.location.lat_deg),
                    repr(pt.location.lon_deg),
                    taxonomy.class_names[pt.label],
                    pt.source_image_id,
                    "" if pt.confidence is None else f"{pt.confidence:.6f}",
                    repr(pt.shift_m),
                    pt.extra_steps,
                ]
            )


def read_reference_csv(path: str | Path, taxonomy: LabelTaxonomy) -> list[ReferencePoint]:
    def parse(row) -> ReferencePoint:
        return ReferencePoint(
            location=GeoPoint(parse_float(row["lat"]), parse_float(row["lon"])),
            label=taxonomy.index(row["label"]),
            source_image_id=row["source_image"],
            shift_m=parse_float(row["shift_m"]),
            extra_steps=parse_int(row["extra_steps"]),
            confidence=parse_float(row["confidence"]) if row["confidence"] else None,
        )

    return read_csv_rows(path, REFERENCE_HEADER, parse, "reference CSV")
