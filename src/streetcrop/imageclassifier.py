"""Street-image dataset management, classifier training and QC.

Two regional taxonomies ship built in: a seven-class one for the
California-style mixed-perennial landscape and a three-class one for
the corn/soybean belt. Both end with an ``others`` catch-all; QC drops
it because an ``others`` image cannot source a crop reference point.

The human quality-control step is captured as data: a confidence
threshold plus an externally edited rejection-list file of image ids,
so a re-run reproduces the same decisions.

Every stage hands images on through one catalog codec:
:func:`write_catalog` and :func:`read_catalog`. A row names the image
file relative to the catalog; an empty label marks an image nobody has
labeled yet (the fetched campaign). Reading a catalog parses no image:
each record keeps only its file's path, so stages that only filter or
shift images never touch pixels. Every image reaches the network as an
:class:`ImageSet` of its 8-bit values (``record.read_pixels()``), turned
into doubles one batch at a time: a training, validation or test set
whole, and in ``classify_images`` one chunk per worker at a time, kept
nowhere afterwards.
"""

from __future__ import annotations

import csv
import functools
import io
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import neuralnet
from .errors import DataValidationError, parse_date, parse_float, parse_int, read_input_text
from .geocore import GeoPoint, Heading
from .imagery import StreetImageRecord
from .neuralnet import Network, NetworkSpec, TrainConfig


@dataclass(frozen=True)
class LabelTaxonomy:
    region: str
    class_names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.class_names)) != len(self.class_names):
            raise DataValidationError("class names must be unique")
        if "others" not in self.class_names:
            raise DataValidationError('taxonomy must include an "others" class')

    def __len__(self) -> int:
        return len(self.class_names)

    def index(self, name: str) -> int:
        try:
            return self.class_names.index(name)
        except ValueError:
            raise DataValidationError(f"unknown class {name!r}") from None

    @property
    def others_index(self) -> int:
        return self.class_names.index("others")


CALIFORNIA = LabelTaxonomy(
    "california", ("alfalfa", "almond", "corn", "cotton", "grape", "pistachio", "others")
)
ILLINOIS = LabelTaxonomy("illinois", ("corn", "soybean", "others"))

TAXONOMIES = {t.region: t for t in (CALIFORNIA, ILLINOIS)}


@dataclass(frozen=True)
class LabeledImage:
    record: StreetImageRecord
    label: int | None = None  # None: nobody has labeled the image yet
    confidence: float | None = None


def largest_remainder(weights: Sequence[float], total: int) -> list[int]:
    """Whole shares of ``total`` for weights summing to 1: each share is
    floored, then the rest go one each by largest remainder, ties to the
    lower index. Every share is within one of ``weight * total``."""
    exact = [w * total for w in weights]
    shares = [int(e) for e in exact]
    order = sorted(range(len(shares)), key=lambda i: (-(exact[i] - shares[i]), i))
    for i in order[: total - sum(shares)]:
        shares[i] += 1
    return shares


def split_dataset(items: Sequence, ratios: tuple[float, float, float], seed: int):
    """Stratified random (train, val, test) partition.

    Each class is shuffled and allocated by largest remainder, so every
    subset size stays within one item of ``ratio * class_size``. The
    same seed always produces the same membership. Items need a
    ``label`` attribute; classes with fewer than 3 items are an error.
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise DataValidationError("ratios must be three positive numbers")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataValidationError(f"ratios must sum to 1, got {sum(ratios)}")
    by_class: dict[int, list] = {}
    for item in items:
        by_class.setdefault(int(item.label), []).append(item)
    for label, members in sorted(by_class.items()):
        if len(members) < 3:
            raise DataValidationError(
                f"class {label} has {len(members)} items; at least 3 required to stratify"
            )
    rng = np.random.default_rng(seed)
    subsets: tuple[list, list, list] = ([], [], [])
    for label in sorted(by_class):
        members = by_class[label]
        order = rng.permutation(len(members))
        sizes = largest_remainder(ratios, len(members))
        start = 0
        for subset, size in zip(subsets, sizes):
            subset.extend(members[i] for i in order[start : start + size])
            start += size
    return subsets


class ImageSet:
    """Images of one size held as their 8-bit values: ``raw`` is ``(n, 3, h,
    w)`` uint8, a byte per value where float64 takes eight.

    ``x[idx]`` is ``raw[idx] / 255.0``, the pixels scaled to unit range, so
    :func:`neuralnet.train` and :func:`neuralnet.predict_batch` take a set
    in place of a float64 array and convert one batch at a time.
    """

    def __init__(self, raw: np.ndarray):
        self.raw = raw

    @property
    def shape(self) -> tuple[int, ...]:
        return self.raw.shape

    def __len__(self) -> int:
        return len(self.raw)

    def __getitem__(self, idx) -> np.ndarray:
        return self.raw[idx] / 255.0


def _stack(records: Sequence[StreetImageRecord]) -> np.ndarray:
    """The 8-bit values of images of one size, ``(h, w, 3)`` each, stacked
    into an (n, 3, h, w) uint8 array; each image is read once."""
    if not records:
        raise DataValidationError("no images given")
    first = records[0].read_pixels()
    batch = np.empty((len(records), 3) + first.shape[:2], np.uint8)
    for i, rec in enumerate(records):
        values = first if i == 0 else rec.read_pixels()
        if values.shape != first.shape:
            raise DataValidationError(
                f"mixed image sizes: {rec.id!r} is {values.shape}, "
                f"{records[0].id!r} is {first.shape}"
            )
        batch[i] = np.transpose(values, (2, 0, 1))
    return batch


def images_to_arrays(images: Sequence[LabeledImage]):
    """Labeled images of one size as an :class:`ImageSet` of their 8-bit
    values and a label vector."""
    x = ImageSet(_stack([li.record for li in images]))
    y = np.array([li.label for li in images], dtype=np.int64)
    return x, y


def train_image_classifier(
    train_images: Sequence[LabeledImage],
    val_images: Sequence[LabeledImage],
    taxonomy: LabelTaxonomy,
    net_spec: NetworkSpec | None = None,
    cfg: TrainConfig = TrainConfig(epochs=30),
):
    """Train the street-image network; returns (net, validation history).

    ``cfg.dropout_rate`` becomes the rate of every Dropout layer of the
    spec, so the trained network's spec records the rate it used.
    """
    present = {li.label for li in train_images}
    missing = [n for i, n in enumerate(taxonomy.class_names) if i not in present]
    if missing:
        raise DataValidationError(f"training set lacks classes: {missing}")
    x_train, y_train = images_to_arrays(train_images)
    x_val, y_val = images_to_arrays(val_images)
    if net_spec is None:
        net_spec = neuralnet.default_image_spec(x_train.shape[1:], len(taxonomy))
    net_spec = neuralnet.clone_spec_with_dropout(net_spec, cfg.dropout_rate)
    if net_spec.n_classes != len(taxonomy):
        raise DataValidationError("network class count does not match the taxonomy")
    net = neuralnet.build_network(net_spec, seed=cfg.seed)
    return neuralnet.train(net, (x_train, y_train), (x_val, y_val), cfg)


def classify_images(net: Network, images: Sequence[StreetImageRecord]) -> list[LabeledImage]:
    """One LabeledImage per input record, order preserved.

    Images are read and predicted in chunks, spread over worker
    processes (:func:`neuralnet._fan_out`); a chunk is one worker's share
    of ``net.inference_batch``, and only its labels and confidences come
    back, so each LabeledImage holds the caller's own record. A record
    that held no pixels holds none afterwards, so memory does not grow
    with the number of images.
    """
    step = neuralnet._worker_batch(net, len(images))
    starts = range(0, len(images), step)

    def read_and_predict(k):
        labels, confidences = neuralnet.predict_batch(
            net, ImageSet(_stack(images[starts[k] : starts[k] + step]))
        )
        return list(zip(labels.tolist(), confidences.tolist()))

    chunks = neuralnet._fan_out(read_and_predict, len(starts))
    predictions = [p for chunk in chunks for p in chunk]
    return [LabeledImage(rec, label, conf) for rec, (label, conf) in zip(images, predictions)]


def qc_filter(
    labeled: Sequence[LabeledImage],
    taxonomy: LabelTaxonomy,
    min_confidence: float = 0.5,
    rejection_ids: set[str] | None = None,
):
    """Partition into (kept, dropped) for reference-point production.

    Dropped: anything labeled "others", anything under the confidence
    threshold, and any id on the human rejection list. Ids on the list
    that never appear produce a warning, not an error.
    """
    if not (0.0 <= min_confidence <= 1.0):
        raise DataValidationError("min_confidence must be in [0, 1]")
    rejection_ids = set(rejection_ids or ())
    seen = {li.record.id for li in labeled}
    for missing in sorted(rejection_ids - seen):
        warnings.warn(f"rejection list id {missing!r} not present in the input")
    kept, dropped = [], []
    for li in labeled:
        reject = (
            li.label == taxonomy.others_index
            or (li.confidence is not None and li.confidence < min_confidence)
            or li.record.id in rejection_ids
        )
        (dropped if reject else kept).append(li)
    return kept, dropped


# --------------------------------------------------------------------------
# Catalog files: one CSV row per image. Image paths are stored relative
# to the catalog so output directories stay relocatable; an empty label
# (and confidence) marks an image nobody has labeled yet.
# --------------------------------------------------------------------------

CATALOG_HEADER = ["id", "path", "label", "confidence", "lat", "lon", "heading", "date"]


def write_catalog(labeled: Iterable[LabeledImage], taxonomy: LabelTaxonomy, path: str | Path):
    """One row per image, pointing at the record's image file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    base = path.parent.resolve()

    @functools.lru_cache(maxsize=None)
    def relative_folder(folder: str) -> str:  # one realpath per folder, not per image
        rel = os.path.relpath(os.path.realpath(folder), base)
        return "" if rel == os.curdir else rel

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CATALOG_HEADER)
        for li in labeled:
            rec = li.record
            if rec.path is None:
                raise DataValidationError(f"image {rec.id!r} has no file for {path}")
            folder, name = os.path.split(rec.path)
            writer.writerow(
                [
                    rec.id,
                    os.path.join(relative_folder(folder), name),
                    "" if li.label is None else taxonomy.class_names[li.label],
                    "" if li.confidence is None else f"{li.confidence:.6f}",
                    repr(rec.capture_point.lat_deg),
                    repr(rec.capture_point.lon_deg),
                    int(rec.heading),
                    "" if rec.capture_date is None else f"{rec.capture_date:%Y-%m}",
                ]
            )


def read_catalog(path: str | Path, taxonomy: LabelTaxonomy) -> list[LabeledImage]:
    """Load a catalog without parsing any image.

    Each record carries its image file's path, whose 8-bit pixels
    ``record.read_pixels()`` reads; a row whose file does not exist is an error.
    """
    base = Path(path).parent.absolute()

    def parse(row) -> LabeledImage:
        image_path = base / row["path"]
        if not image_path.is_file():
            raise DataValidationError(f"image file not found: {image_path}")
        record = StreetImageRecord(
            id=row["id"],
            capture_point=GeoPoint(parse_float(row["lat"]), parse_float(row["lon"])),
            heading=Heading(parse_int(row["heading"])),
            capture_date=parse_date(row["date"], "YYYY-MM") if row["date"] else None,
            path=image_path,
        )
        confidence = None
        if row["confidence"]:
            confidence = parse_float(row["confidence"])
            if not 0.0 <= confidence <= 1.0:
                raise ValueError(f"confidence {confidence} outside [0, 1]")
        label = taxonomy.index(row["label"]) if row["label"] else None
        return LabeledImage(record, label, confidence)

    return read_csv_rows(path, CATALOG_HEADER, parse, "catalog")


def read_csv_rows(path: str | Path, header: list[str], parse_row, what: str) -> list:
    """``parse_row`` applied to each row of a CSV file with the given header.

    A malformed row (a short or long row, or one ``parse_row`` rejects
    with a ``ValueError`` or ``DataValidationError``) raises a
    ``DataValidationError`` that names the file and the line.
    """
    path = Path(path)
    reader = csv.DictReader(io.StringIO(read_input_text(path, what), newline=""))
    try:
        if reader.fieldnames != header:
            raise DataValidationError(f"unexpected {what} columns {reader.fieldnames}")
        rows = []
        for row in reader:
            if None in row or None in row.values():
                raise ValueError(f"expected {len(header)} cells")
            rows.append(parse_row(row))
        return rows
    except (ValueError, csv.Error, DataValidationError) as exc:
        raise DataValidationError(f"{path}:{reader.line_num}: {exc}") from exc


def read_rejection_list(path: str | Path) -> set[str]:
    """One image id per line; blank lines and ``#`` comments ignored."""
    ids = set()
    for line in read_input_text(path, "rejection list").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            ids.add(line)
    return ids
