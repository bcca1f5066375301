"""The ``streetcrop`` command: one subcommand per pipeline stage.

Stages write their artifacts into the ``--out`` directory under fixed
names, so a single config file drives the whole chain:

    synth -> grid -> fetch -> train-images -> classify-images -> qc
          -> make-refs -> validate-refs -> select-features
          -> train-mapper -> map -> evaluate

The deliberate seam between ``classify-images`` and ``make-refs`` is
where a human edits the rejection list consumed by ``qc``.

Config files are flat ``key = value`` text with section prefixes
(``shift.road_width_y_m = 12``). :data:`CONFIG_KEYS` holds every key with
its parser and default; an unknown key or a malformed value is a usage
error before any command runs. A ``paths.*`` key locates an artifact
that chains stages, by default under ``--out``; a configured path
resolves against the config file's directory. Every command writes a
``<command>.manifest`` recording the config hash, seed and input/output
paths; rerunning a command with identical config, seed and inputs
reproduces its artifacts byte for byte.

Exit codes: 0 success, 1 usage error (including an unreadable config),
2 data/validation error (including any unreadable input or unwritable
output), 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from . import cropmapper, imageclassifier, metrics, neuralnet, refgen, synthworld
from .errors import DataValidationError, UsageError, parse_float, parse_int, read_input_text
from .geocore import BoundingBox, GeoPoint, Heading, ShiftParams, make_sampling_grid
from .imageclassifier import TAXONOMIES, LabeledImage, LabelTaxonomy
from .imagery import FixtureIndex
from .rasterstack import FeatureName, SceneStack, read_grid, read_manifest, write_grid

# --------------------------------------------------------------------------
# Config file
# --------------------------------------------------------------------------

# A parser returns a config value's typed value or raises ValueError with a
# phrase that completes "config key <key> ...". Numbers follow the ASCII
# grammar of errors.INT and errors.FLOAT.


def _int(raw: str) -> int:
    """Every integer key counts something, so none may be negative."""
    try:
        value = parse_int(raw)
    except ValueError:
        raise ValueError("is not an integer") from None
    if value < 0:
        raise ValueError("must be a non-negative integer")
    return value


def _float(raw: str) -> float:
    try:
        value = parse_float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError("is not a finite number")
    return value


def _list(item: Callable[[str], object], what: str, raw: str) -> tuple:
    """A non-empty, comma-separated list of ``item`` values."""
    try:
        values = tuple(item(t.strip()) for t in raw.split(",") if t.strip())
    except ValueError:
        values = ()
    if not values:
        raise ValueError(f"is not {what}")
    return values


_floats = partial(_list, _float, "a list of finite numbers")
_features = partial(_list, FeatureName, "a list of features")


def _bbox(raw: str) -> BoundingBox:
    parts = _floats(raw)
    if len(parts) != 4:
        raise ValueError("is not min_lat,max_lat,min_lon,max_lon")
    try:
        return BoundingBox(*parts)
    except DataValidationError as exc:
        raise ValueError(f"is not a valid box ({exc})") from None


def _region(raw: str) -> LabelTaxonomy:
    if raw not in TAXONOMIES:
        raise ValueError(f"is not a known region {sorted(TAXONOMIES)}")
    return TAXONOMIES[raw]


def _path(raw: str) -> Path:
    if not raw:
        raise ValueError("is an empty path")
    return Path(raw)


class ConfigKey(NamedTuple):
    parse: Callable[[str], object]
    default: str | None = None  # in config syntax; None: unset


#: Every key a config may set; README's config-key tables document each. A
#: path key's default lies under --out, shared by the artifact's writer and readers.
CONFIG_KEYS = {
    "region": ConfigKey(_region, "california"),
    "seed": ConfigKey(_int),
    "bbox": ConfigKey(_bbox),
    "synth.parcels_per_side": ConfigKey(_int, str(synthworld.WorldConfig.parcels_per_side)),
    "synth.parcel_cells": ConfigKey(_int, str(synthworld.WorldConfig.parcel_cells)),
    "synth.proportions": ConfigKey(_floats),  # unset: equal weights
    "synth.noise_sigma": ConfigKey(_float, str(synthworld.WorldConfig.noise_sigma)),
    "synth.cloud_fraction": ConfigKey(_float, str(synthworld.WorldConfig.cloud_fraction)),
    "synth.n_per_class": ConfigKey(_int, "220"),
    "synth.fixture_stride": ConfigKey(_int, "3"),
    "grid.spacing_m": ConfigKey(_float, "30"),
    "shift.road_width_y_m": ConfigKey(_float, "30"),
    "shift.pixel_size_x_m": ConfigKey(_float, "30"),
    "shift.extra_steps": ConfigKey(_int, "0"),
    "split.ratios": ConfigKey(_floats, "0.6,0.2,0.2"),
    "net.epochs": ConfigKey(_int),  # unset: each network's own default
    "net.learning_rate": ConfigKey(_float, str(neuralnet.TrainConfig.learning_rate)),
    "net.momentum": ConfigKey(_float, str(neuralnet.TrainConfig.momentum)),
    "net.batch_size": ConfigKey(_int, str(neuralnet.TrainConfig.batch_size)),
    "net.dropout_rate": ConfigKey(_float, str(neuralnet.TrainConfig.dropout_rate)),
    "net.dropout_grid": ConfigKey(_floats),
    "qc.min_confidence": ConfigKey(_float, "0.5"),
    "qc.rejection_list": ConfigKey(_path),
    "refs.min_per_class": ConfigKey(_int, "0"),
    "refs.others_count": ConfigKey(_int, "0"),
    "features.candidates": ConfigKey(_features, ",".join(f.value for f in FeatureName)),
    "features.selected": ConfigKey(_features),
    "paths.truth": ConfigKey(_path, "world/truth.grid"),
    "paths.scenes": ConfigKey(_path, "world/scenes"),
    "paths.training_catalog": ConfigKey(_path, "world/training/catalog.csv"),
    "paths.fixtures": ConfigKey(_path, "world/fixtures"),
    "paths.grid_csv": ConfigKey(_path, "grid.csv"),
    "paths.campaign_catalog": ConfigKey(_path, "campaign.csv"),
    "paths.image_model": ConfigKey(_path, "image_model.rtnn"),
    "paths.classified_catalog": ConfigKey(_path, "classified.csv"),
    "paths.kept_catalog": ConfigKey(_path, "kept.csv"),
    "paths.refs_csv": ConfigKey(_path, "refs.csv"),
    "paths.selection": ConfigKey(_path, "selection.csv"),
    "paths.pixel_model": ConfigKey(_path, "pixel_model.rtnn"),
    "paths.map_grid": ConfigKey(_path, "crop_map.grid"),
}


class RunConfig(dict):
    """Every key's parsed value, defaults filled in from :data:`CONFIG_KEYS`."""

    sha256: str  # of the config file's bytes

    @classmethod
    def load(cls, path: str | Path, seed=None) -> "RunConfig":
        """Parse a config file; ``seed`` (from ``--seed``) overrides its seed."""
        path = Path(path)
        text = read_input_text(path, "config", UsageError)
        cfg = cls({k: None if d is None else parse(d) for k, (parse, d) in CONFIG_KEYS.items()})
        for n, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise UsageError(f"{path}:{n}: expected 'key = value', got {line!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key not in CONFIG_KEYS:
                raise UsageError(f"{path}:{n}: unknown config key {key!r}")
            try:
                value = CONFIG_KEYS[key].parse(raw)
            except ValueError as exc:
                raise UsageError(f"{path}:{n}: config key {key} {exc}: {raw!r}") from None
            cfg[key] = path.parent.resolve() / value if isinstance(value, Path) else value
        if seed is not None:
            cfg["seed"] = seed
        cfg.sha256 = hashlib.sha256(text.encode()).hexdigest()
        return cfg

    @property
    def seed(self) -> int:
        if self["seed"] is None:
            raise UsageError("seed is mandatory: set 'seed =' in the config or pass --seed")
        return self["seed"]

    @property
    def taxonomy(self) -> LabelTaxonomy:
        return self["region"]

    def shift_params(self) -> ShiftParams:
        return ShiftParams(
            road_width_y_m=self["shift.road_width_y_m"],
            pixel_size_x_m=self["shift.pixel_size_x_m"],
            extra_steps=self["shift.extra_steps"],
        )

    def train_config(self, default_epochs: int) -> neuralnet.TrainConfig:
        epochs = self["net.epochs"]
        return neuralnet.TrainConfig(
            epochs=default_epochs if epochs is None else epochs,
            learning_rate=self["net.learning_rate"],
            momentum=self["net.momentum"],
            batch_size=self["net.batch_size"],
            dropout_rate=self["net.dropout_rate"],
            seed=self.seed,
        )


class _Run:
    """Resolved paths and manifest bookkeeping for one command.

    A path key's default is relative, so it lands under ``--out``; a
    configured path resolved against the config's directory is absolute,
    and ``out / path`` keeps it.
    """

    def __init__(self, command: str, cfg: RunConfig, out_dir: Path):
        self.command = command
        self.cfg = cfg
        self.seed = cfg.seed  # a missing seed stops the command before any work
        self.out = out_dir
        self.out.mkdir(parents=True, exist_ok=True)
        self.inputs: list[Path] = []
        self.outputs: list[Path] = []

    def input_path(self, key: str) -> Path:
        p = self.out / self.cfg[key]
        self.inputs.append(p)
        return p

    def output_path(self, key: str) -> Path:
        p = self.out / self.cfg[key]
        p.parent.mkdir(parents=True, exist_ok=True)
        self.outputs.append(p)
        return p

    def report(self, name: str) -> Path:
        """A report file no stage reads, at its fixed name under ``--out``."""
        p = self.out / name
        self.outputs.append(p)
        return p

    def write_manifest(self):
        lines = [
            f"command={self.command}",
            f"config_sha256={self.cfg.sha256}",
            f"seed={self.seed}",
        ]
        lines += [f"input={p}" for p in self.inputs]
        lines += [f"output={p}" for p in self.outputs]
        (self.out / f"{self.command}.manifest").write_text("\n".join(lines) + "\n")


def _scene_manifests(run: _Run):
    """The scene manifests under ``paths.scenes``, by date. Read them before
    the feature selection, so a command manifest lists the scenes first."""
    scenes_dir = run.input_path("paths.scenes")
    manifest_paths = sorted(scenes_dir.glob("*.manifest"))
    if not manifest_paths:
        raise DataValidationError(f"no scene manifests in {scenes_dir}")
    return sorted((read_manifest(p) for p in manifest_paths), key=lambda m: m.scene_date)


def _truth(run: _Run):
    return read_grid(run.input_path("paths.truth"))


def _labeled_catalog(run: _Run, key: str) -> list[LabeledImage]:
    path = run.input_path(key)
    labeled = imageclassifier.read_catalog(path, run.cfg.taxonomy)
    for li in labeled:
        if li.label is None:
            raise DataValidationError(f"{path}: image {li.record.id!r} has no label")
    return labeled


def _selected_features(run: _Run) -> tuple[FeatureName, ...]:
    configured = run.cfg["features.selected"]
    if configured is not None:
        return configured
    selection_csv = run.input_path("paths.selection")
    if not selection_csv.exists():
        raise UsageError("no feature list: set features.selected or run select-features first")
    return tuple(
        imageclassifier.read_csv_rows(
            selection_csv, ["feature"], lambda row: FeatureName(row["feature"]),
            "feature selection",
        )
    )


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def _cmd_synth(run: _Run):
    cfg = run.cfg
    if cfg["synth.fixture_stride"] < 1:  # used last, so checked before anything is written
        raise DataValidationError("synth.fixture_stride must be at least 1")
    world_cfg = synthworld.WorldConfig(
        cfg.taxonomy,
        parcels_per_side=cfg["synth.parcels_per_side"],
        parcel_cells=cfg["synth.parcel_cells"],
        proportions=cfg["synth.proportions"] or (),
        noise_sigma=cfg["synth.noise_sigma"],
        cloud_fraction=cfg["synth.cloud_fraction"],
        seed=cfg.seed,
    )
    # synth writes at the path keys' defaults; set, those keys point later stages elsewhere
    truth_path, scenes_dir, catalog, fixtures_dir = (
        run.out / CONFIG_KEYS[key].default
        for key in ("paths.truth", "paths.scenes", "paths.training_catalog", "paths.fixtures")
    )
    world_dir = truth_path.parent
    world = synthworld.generate_world(world_cfg)
    # first, as it checks every class has enough views before it writes
    synthworld.build_training_catalog(world, catalog.parent, n_per_class=cfg["synth.n_per_class"])
    write_grid(world.truth, truth_path)
    write_grid(world.road_mask, world_dir / "roadmask.grid")
    manifests = synthworld.synthesize_scenes(world, scenes_dir)
    n_fixtures = synthworld.build_campaign_fixtures(
        world, fixtures_dir, stride=cfg["synth.fixture_stride"]
    )
    e = world_cfg.extent
    (world_dir / "extent.txt").write_text(
        f"bbox = {e.min_lat_deg!r},{e.max_lat_deg!r},{e.min_lon_deg!r},{e.max_lon_deg!r}\n"
    )
    run.outputs += [truth_path, world_dir / "roadmask.grid", scenes_dir, catalog]
    run.outputs += [fixtures_dir, world_dir / "extent.txt"]
    print(
        f"world: {world.truth.nrows}x{world.truth.ncols} cells, "
        f"{world.parcel_classes.size} parcels, {len(manifests)} scenes, "
        f"{n_fixtures} campaign fixtures"
    )
    print(f"training catalog: {catalog}")


def _grid_bbox(run: _Run) -> BoundingBox:
    if run.cfg["bbox"] is not None:
        return run.cfg["bbox"]
    # Fall back to the truth raster's cell-center region: sampling points
    # then coincide with cell centers whenever spacing matches cell size.
    truth = _truth(run)
    half = 0.5 * truth.cellsize
    return BoundingBox(
        truth.yll + half,
        truth.yll + (truth.nrows - 0.5) * truth.cellsize,
        truth.xll + half,
        truth.xll + (truth.ncols - 0.5) * truth.cellsize,
    )


def _cmd_grid(run: _Run):
    bbox = _grid_bbox(run)
    spacing = run.cfg["grid.spacing_m"]
    points = make_sampling_grid(bbox, spacing)
    out = run.output_path("paths.grid_csv")
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["lat", "lon"])
        for p in points:
            writer.writerow([repr(p.lat_deg), repr(p.lon_deg)])
    print(f"{len(points)} sampling points at {spacing} m -> {out}")


def _cmd_fetch(run: _Run):
    grid_csv = run.input_path("paths.grid_csv")
    index = FixtureIndex(run.input_path("paths.fixtures"))
    out = run.output_path("paths.campaign_catalog")
    points = imageclassifier.read_csv_rows(
        grid_csv, ["lat", "lon"], lambda row: GeoPoint(parse_float(row["lat"]), parse_float(row["lon"])),
        "sampling grid",
    )
    found = index.resolve(points, list(Heading)).ravel()  # point-major, then heading
    hits = found[found >= 0].tolist()
    # a fixture can satisfy several nearby grid points; keep the first hit
    unique = [index.record(k) for k in dict.fromkeys(hits)]
    imageclassifier.write_catalog(map(LabeledImage, unique), run.cfg.taxonomy, out)
    print(
        f"fetched {len(unique)} images "
        f"({len(hits) - len(unique)} duplicate hits, {len(found) - len(hits)} misses) -> {out}"
    )


def _cmd_train_images(run: _Run):
    cfg = run.cfg
    labeled = _labeled_catalog(run, "paths.training_catalog")
    train_set, val_set, test_set = imageclassifier.split_dataset(
        labeled, cfg["split.ratios"], cfg.seed
    )
    tcfg = cfg.train_config(default_epochs=30)
    net, history = imageclassifier.train_image_classifier(
        train_set, val_set, cfg.taxonomy, cfg=tcfg
    )
    neuralnet.serialize_model(net, run.output_path("paths.image_model"))
    x_test, y_test = imageclassifier.images_to_arrays(test_set)
    pred, _ = neuralnet.predict_batch(net, x_test)
    cm = metrics.confusion_matrix(pred, y_test, cfg.taxonomy.class_names)
    run.report("image_test_confusion.txt").write_text(metrics.confusion_to_text(cm))
    run.report("image_test_confusion.csv").write_text(metrics.confusion_to_csv(cm))
    run.report("image_history.csv").write_text(
        "epoch,val_accuracy\n"
        + "".join(f"{i + 1},{a:.6f}\n" for i, a in enumerate(history))
    )
    oa = metrics.overall_accuracy(cm)
    print(f"trained on {len(train_set)} images; test OA = {oa:.4f}")
    print(metrics.confusion_to_text(cm))


def _cmd_classify_images(run: _Run):
    cfg = run.cfg
    net = neuralnet.deserialize_model(run.input_path("paths.image_model"))
    catalog = run.input_path("paths.campaign_catalog")
    records = [li.record for li in imageclassifier.read_catalog(catalog, cfg.taxonomy)]
    labeled = imageclassifier.classify_images(net, records)
    out = run.output_path("paths.classified_catalog")
    imageclassifier.write_catalog(labeled, cfg.taxonomy, out)
    per_class = {name: 0 for name in cfg.taxonomy.class_names}
    for li in labeled:
        per_class[cfg.taxonomy.class_names[li.label]] += 1
    print(f"classified {len(labeled)} images -> {out}")
    for name, count in per_class.items():
        print(f"  {name}: {count}")


def _cmd_qc(run: _Run):
    cfg = run.cfg
    labeled = _labeled_catalog(run, "paths.classified_catalog")
    rejection_path = cfg["qc.rejection_list"]
    rejection_ids = set()
    if rejection_path is not None:
        run.inputs.append(rejection_path)
        rejection_ids = imageclassifier.read_rejection_list(rejection_path)
    kept, dropped = imageclassifier.qc_filter(
        labeled,
        cfg.taxonomy,
        min_confidence=cfg["qc.min_confidence"],
        rejection_ids=rejection_ids,
    )
    imageclassifier.write_catalog(kept, cfg.taxonomy, run.output_path("paths.kept_catalog"))
    imageclassifier.write_catalog(dropped, cfg.taxonomy, run.report("dropped.csv"))
    print(f"kept {len(kept)}, dropped {len(dropped)} (others/low-confidence/rejected)")


def _cmd_make_refs(run: _Run):
    cfg = run.cfg
    kept = _labeled_catalog(run, "paths.kept_catalog")
    truth = _truth(run)
    result = refgen.generate_reference_points(
        kept, cfg.shift_params(), min_per_class=cfg["refs.min_per_class"], world=truth
    )
    points = list(result.points)
    others_count = cfg["refs.others_count"]
    if others_count > 0:
        points += refgen.sample_class_points(
            truth, cfg.taxonomy.others_index, others_count, cfg.seed
        )
    out = run.output_path("paths.refs_csv")
    refgen.write_reference_csv(points, cfg.taxonomy, out)
    summary = run.report("refs_summary.txt")
    lines = [f"points={len(points)}"]
    for label in sorted(result.per_class_counts):
        lines.append(
            f"class.{cfg.taxonomy.class_names[label]}={result.per_class_counts[label]}"
        )
    if others_count:
        lines.append(f"class.others.sampled_from_truth={others_count}")
    for label, n in sorted(result.short_classes.items()):
        lines.append(f"short.{cfg.taxonomy.class_names[label]}={n}")
    if result.dropped_outside:
        lines.append(f"dropped.outside_extent={result.dropped_outside}")
    summary.write_text("\n".join(lines) + "\n")
    print(f"{len(points)} reference points -> {out}")
    if result.dropped_outside:
        print(f"dropped.outside_extent={result.dropped_outside} (shifted off the truth raster)")
    if result.short_classes:
        names = {cfg.taxonomy.class_names[c]: n for c, n in result.short_classes.items()}
        print(f"still short after augmentation: {names}")


def _cmd_validate_refs(run: _Run):
    cfg = run.cfg
    points = refgen.read_reference_csv(run.input_path("paths.refs_csv"), cfg.taxonomy)
    truth = _truth(run)
    report, disagreeing = refgen.validate_reference_points(points, truth, cfg.taxonomy)
    run.report("refs_agreement.txt").write_text(metrics.agreement_to_text(report))
    run.report("refs_agreement.csv").write_text(metrics.agreement_to_csv(report))
    bad = run.report("refs_disagreements.csv")
    refgen.write_reference_csv(disagreeing, cfg.taxonomy, bad)
    print(metrics.agreement_to_text(report))
    print(f"{len(disagreeing)} disagreeing points -> {bad}")


def _cmd_select_features(run: _Run):
    cfg = run.cfg
    points = refgen.read_reference_csv(run.input_path("paths.refs_csv"), cfg.taxonomy)
    stack = SceneStack.from_manifests(_scene_manifests(run), cfg["features.candidates"])
    result = cropmapper.forward_select(
        points, stack, cfg.taxonomy, cfg.train_config(default_epochs=20)
    )
    report = cropmapper.selection_report_text(result)
    run.report("selection.txt").write_text(report)
    selection_csv = run.output_path("paths.selection")
    selection_csv.write_text("feature\n" + "".join(f.value + "\n" for f in result.selected))
    print(report)


def _cmd_train_mapper(run: _Run):
    cfg = run.cfg
    points = refgen.read_reference_csv(run.input_path("paths.refs_csv"), cfg.taxonomy)
    stack = SceneStack.from_manifests(_scene_manifests(run), _selected_features(run))
    base_cfg = cfg.train_config(default_epochs=20)
    sweep = cfg["net.dropout_grid"]
    for rate in sweep or ():
        if not 0.0 <= rate < 1.0:
            raise DataValidationError(f"net.dropout_grid rate {rate} must be in [0, 1)")
    rates = sweep or (base_cfg.dropout_rate,)

    def train_at(k):
        rate_cfg = replace(base_cfg, dropout_rate=rates[k])
        return cropmapper.train_pixel_classifier(points, stack, cfg.taxonomy, rate_cfg)

    results = list(zip(rates, neuralnet._fan_out(train_at, len(rates))))
    best_rate, result = max(results, key=lambda t: t[1].history[-1])
    if sweep:
        rows = "".join(f"{rate},{r.history[-1]:.6f}\n" for rate, r in results)
        run.report("dropout_sweep.csv").write_text("dropout_rate,val_accuracy\n" + rows)
        print(f"dropout sweep {sweep}: best rate {best_rate}")
    neuralnet.serialize_model(result.net, run.output_path("paths.pixel_model"))
    run.report("pixel_confusion.txt").write_text(metrics.confusion_to_text(result.confusion))
    run.report("pixel_confusion.csv").write_text(metrics.confusion_to_csv(result.confusion))
    oa = metrics.overall_accuracy(result.confusion)
    print(
        f"pixel model on {result.n_train}+{result.n_val} points "
        f"({result.dropped_unusable} unusable dropped); held-out OA = {oa:.4f}"
    )


def _cmd_map(run: _Run):
    cfg = run.cfg
    net = neuralnet.deserialize_model(run.input_path("paths.pixel_model"))
    stack = SceneStack.from_manifests(_scene_manifests(run), _selected_features(run))
    bbox = cfg["bbox"]
    if bbox is None:
        t = stack.template
        bbox = BoundingBox(
            t.yll, t.yll + t.nrows * t.cellsize, t.xll, t.xll + t.ncols * t.cellsize
        )
    crop_map = cropmapper.predict_crop_map(net, stack, bbox, cfg.taxonomy)
    map_path = run.output_path("paths.map_grid")
    legend = cropmapper.write_crop_map(crop_map, map_path)
    run.outputs.append(legend)
    counts = metrics.area_counts(crop_map.grid)
    named = {cfg.taxonomy.class_names[i]: n for i, n in sorted(counts.items())}
    print(f"map {crop_map.grid.nrows}x{crop_map.grid.ncols} -> {map_path}")
    print(f"area counts: {named}")


def _cmd_evaluate(run: _Run):
    cfg = run.cfg
    crop_map = cropmapper.read_crop_map(run.input_path("paths.map_grid"), cfg.taxonomy)
    truth = _truth(run)
    ev = cropmapper.evaluate_crop_map(crop_map, truth)
    text = metrics.confusion_to_text(ev.confusion) + "\n" + metrics.agreement_to_text(ev.agreement)
    run.report("evaluation.txt").write_text(text)
    run.report("map_confusion.csv").write_text(metrics.confusion_to_csv(ev.confusion))
    run.report("map_agreement.csv").write_text(metrics.agreement_to_csv(ev.agreement))
    area_csv = run.report("area_counts.csv")
    lines = ["class,map_pixels,truth_pixels"]
    for i, name in enumerate(cfg.taxonomy.class_names):
        lines.append(f"{name},{ev.map_area_counts.get(i, 0)},{ev.truth_area_counts.get(i, 0)}")
    area_csv.write_text("\n".join(lines) + "\n")
    print(text)


_HANDLERS = {
    "synth": _cmd_synth,
    "grid": _cmd_grid,
    "fetch": _cmd_fetch,
    "train-images": _cmd_train_images,
    "classify-images": _cmd_classify_images,
    "qc": _cmd_qc,
    "make-refs": _cmd_make_refs,
    "validate-refs": _cmd_validate_refs,
    "select-features": _cmd_select_features,
    "train-mapper": _cmd_train_mapper,
    "map": _cmd_map,
    "evaluate": _cmd_evaluate,
}

COMMANDS = tuple(_HANDLERS)


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _seed_flag(raw: str) -> int:
    """``--seed`` is read as the config's ``seed`` key is, and words a mistake alike."""
    try:
        return _int(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}: {raw!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="streetcrop", description=__doc__.split("\n\n")[0])
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help=", ".join(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the run config file")
    parser.add_argument("--seed", type=_seed_flag, default=None, help="override the config seed")
    parser.add_argument("--out", default="run", help="artifact directory (default: ./run)")
    return parser


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = RunConfig.load(args.config, seed=args.seed)
        run = _Run(args.command, cfg, Path(args.out))
        _HANDLERS[args.command](run)
        run.write_manifest()
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataValidationError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
