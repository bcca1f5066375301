"""The ``streetcrop`` command: one subcommand per pipeline stage.

Stages write their artifacts into the ``--out`` directory under fixed
names, so a single config file drives the whole chain:

    synth -> grid -> fetch -> train-images -> classify-images -> qc
          -> make-refs -> validate-refs -> select-features
          -> train-mapper -> map -> evaluate

The deliberate seam between ``classify-images`` and ``make-refs`` is
where a human edits the rejection list consumed by ``qc``.

Config files are flat ``key = value`` text with section prefixes
(``shift.road_width_y_m = 12``). A key outside :data:`CONFIG_KEYS` and
the ``paths.*`` keys is a usage error. Relative paths resolve against the
config file's directory. Every command writes a ``<command>.manifest``
recording the config hash, seed and input/output paths; rerunning a
command with identical config, seed and inputs reproduces its artifacts
byte for byte.

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
from pathlib import Path

from . import cropmapper, imageclassifier, metrics, neuralnet, refgen, synthworld
from .errors import DataValidationError, UsageError, read_input_text
from .geocore import BoundingBox, GeoPoint, Heading, ShiftParams, make_sampling_grid
from .imageclassifier import TAXONOMIES, LabeledImage, LabelTaxonomy
from .imagery import FixtureIndex, FixtureNotFoundError, StreetRequest
from .rasterstack import FeatureName, SceneStack, read_grid, read_manifest, write_grid

# --------------------------------------------------------------------------
# Config file
# --------------------------------------------------------------------------

#: Every key a config may set besides the ``paths.*`` keys; README's
#: config-key table documents each.
CONFIG_KEYS = (
    "region",
    "seed",
    "bbox",
    "synth.parcels_per_side",
    "synth.parcel_cells",
    "synth.proportions",
    "synth.noise_sigma",
    "synth.cloud_fraction",
    "synth.n_per_class",
    "synth.fixture_stride",
    "grid.spacing_m",
    "shift.road_width_y_m",
    "shift.pixel_size_x_m",
    "shift.extra_steps",
    "split.ratios",
    "net.epochs",
    "net.learning_rate",
    "net.momentum",
    "net.batch_size",
    "net.dropout_rate",
    "net.dropout_grid",
    "qc.min_confidence",
    "qc.rejection_list",
    "refs.min_per_class",
    "refs.others_count",
    "features.candidates",
    "features.selected",
)


class RunConfig:
    """Flat key=value config with typed accessors and path resolution."""

    def __init__(self, values: dict[str, str], base_dir: Path, raw_bytes: bytes, seed=None):
        self.values = values
        self.base_dir = base_dir
        self.sha256 = hashlib.sha256(raw_bytes).hexdigest()
        self._seed_override = seed

    @classmethod
    def load(cls, path: str | Path, seed=None) -> "RunConfig":
        path = Path(path)
        text = read_input_text(path, "config", UsageError)
        values: dict[str, str] = {}
        for n, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise UsageError(f"{path}:{n}: expected 'key = value', got {line!r}")
            key, value = stripped.split("=", 1)
            key = key.strip()
            if key not in CONFIG_KEYS and not key.startswith("paths."):
                raise UsageError(f"{path}:{n}: unknown config key {key!r}")
            values[key] = value.strip()
        return cls(values, path.parent.resolve(), text.encode(), seed=seed)

    def _finite(self, key: str, token, what: str) -> float:
        try:
            value = float(token)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise UsageError(f"config key {key} is not {what}: {self.values[key]!r}")
        return value

    def get_float(self, key: str, default: float) -> float:
        raw = self.values.get(key)
        return default if raw is None else self._finite(key, raw, "a finite number")

    def get_int(self, key: str, default: int) -> int:
        raw = self.values.get(key)
        try:
            return default if raw is None else int(raw)
        except ValueError:
            raise UsageError(f"config key {key} is not an integer: {raw!r}") from None

    def get_list(self, key: str, default=()) -> tuple[str, ...]:
        raw = self.values.get(key)
        if raw is None:
            return tuple(default)
        return tuple(t.strip() for t in raw.split(",") if t.strip())

    def get_floats(self, key: str, default=()) -> tuple[float, ...]:
        return tuple(
            self._finite(key, t, "a list of finite numbers") for t in self.get_list(key, default)
        )

    def path(self, key: str) -> Path | None:
        raw = self.values.get(key)
        if raw is None:
            return None
        p = Path(raw)
        return p if p.is_absolute() else self.base_dir / p

    @property
    def seed(self) -> int:
        if self._seed_override is not None:
            seed = int(self._seed_override)
        elif "seed" not in self.values:
            raise UsageError("seed is mandatory: set 'seed =' in the config or pass --seed")
        else:
            seed = self.get_int("seed", 0)
        if seed < 0:
            raise UsageError(f"seed must be a non-negative integer, got {seed}")
        return seed

    @property
    def taxonomy(self) -> LabelTaxonomy:
        region = self.values.get("region", "california")
        if region not in TAXONOMIES:
            raise UsageError(f"unknown region {region!r}; known: {sorted(TAXONOMIES)}")
        return TAXONOMIES[region]

    def bbox(self) -> BoundingBox | None:
        if "bbox" not in self.values:
            return None
        parts = self.get_floats("bbox")
        if len(parts) != 4:
            raise UsageError("bbox must be min_lat,max_lat,min_lon,max_lon")
        return BoundingBox(*parts)

    def shift_params(self) -> ShiftParams:
        return ShiftParams(
            road_width_y_m=self.get_float("shift.road_width_y_m", 30.0),
            pixel_size_x_m=self.get_float("shift.pixel_size_x_m", 30.0),
            extra_steps=self.get_int("shift.extra_steps", 0),
        )

    def train_config(self, default_epochs: int) -> neuralnet.TrainConfig:
        return neuralnet.TrainConfig(
            epochs=self.get_int("net.epochs", default_epochs),
            learning_rate=self.get_float("net.learning_rate", 0.01),
            momentum=self.get_float("net.momentum", 0.9),
            batch_size=self.get_int("net.batch_size", 32),
            dropout_rate=self.get_float("net.dropout_rate", neuralnet.TrainConfig.dropout_rate),
            seed=self.seed,
        )

    def features(self, key: str, default=()) -> tuple[FeatureName, ...]:
        names = self.get_list(key, default)
        try:
            return tuple(FeatureName(n) for n in names)
        except ValueError as exc:
            raise UsageError(f"config key {key}: {exc}") from None


class _Run:
    """Resolved paths and manifest bookkeeping for one command."""

    def __init__(self, command: str, cfg: RunConfig, out_dir: Path):
        self.command = command
        self.cfg = cfg
        self.seed = cfg.seed  # a missing or negative seed stops the command before any work
        self.out = out_dir
        self.out.mkdir(parents=True, exist_ok=True)
        self.inputs: list[Path] = []
        self.outputs: list[Path] = []

    def input_path(self, key: str, default_name: str) -> Path:
        p = self.cfg.path(key) or (self.out / default_name)
        self.inputs.append(p)
        return p

    def output_path(self, key: str, default_name: str) -> Path:
        p = self.cfg.path(key) or (self.out / default_name)
        p.parent.mkdir(parents=True, exist_ok=True)
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


def _scenes(run: _Run) -> SceneStack:
    scenes_dir = run.input_path("paths.scenes", "world/scenes")
    manifest_paths = sorted(scenes_dir.glob("*.manifest"))
    if not manifest_paths:
        raise DataValidationError(f"no scene manifests in {scenes_dir}")
    manifests = sorted((read_manifest(p) for p in manifest_paths), key=lambda m: m.scene_date)
    return SceneStack.from_manifests(manifests)


def _truth(run: _Run):
    return read_grid(run.input_path("paths.truth", "world/truth.grid"))


def _labeled_catalog(run: _Run, key: str, default_name: str) -> list[LabeledImage]:
    path = run.input_path(key, default_name)
    labeled = imageclassifier.read_catalog(path, run.cfg.taxonomy)
    for li in labeled:
        if li.label is None:
            raise DataValidationError(f"{path}: image {li.record.id!r} has no label")
    return labeled


def _selected_features(run: _Run) -> tuple[FeatureName, ...]:
    configured = run.cfg.features("features.selected")
    if configured:
        return configured
    selection_csv = run.cfg.path("paths.selection") or (run.out / "selection.csv")
    if selection_csv.exists():
        run.inputs.append(selection_csv)
        return tuple(
            imageclassifier.read_csv_rows(
                selection_csv, ["feature"], lambda row: FeatureName(row["feature"]),
                "feature selection",
            )
        )
    raise UsageError(
        "no feature list: set features.selected or run select-features first"
    )


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def _cmd_synth(run: _Run):
    cfg = run.cfg
    world_cfg = synthworld.square_world_config(
        cfg.taxonomy,
        parcels_per_side=cfg.get_int("synth.parcels_per_side", 22),
        proportions=cfg.get_floats("synth.proportions") or None,
        parcel_cells=cfg.get_int("synth.parcel_cells", 8),
        noise_sigma=cfg.get_float("synth.noise_sigma", 0.01),
        cloud_fraction=cfg.get_float("synth.cloud_fraction", 0.1),
        seed=cfg.seed,
    )
    world_dir = cfg.path("paths.world") or (run.out / "world")
    world = synthworld.generate_world(world_cfg)
    truth_path = world_dir / "truth.grid"
    write_grid(world.truth, truth_path)
    write_grid(world.road_mask, world_dir / "roadmask.grid")
    manifests = synthworld.synthesize_scenes(world, world_dir / "scenes")
    catalog = synthworld.build_training_catalog(
        world, world_dir / "training", n_per_class=cfg.get_int("synth.n_per_class", 220)
    )
    n_fixtures = synthworld.build_campaign_fixtures(
        world, world_dir / "fixtures", stride=cfg.get_int("synth.fixture_stride", 3)
    )
    e = world_cfg.extent
    (world_dir / "extent.txt").write_text(
        f"bbox = {e.min_lat_deg!r},{e.max_lat_deg!r},{e.min_lon_deg!r},{e.max_lon_deg!r}\n"
    )
    run.outputs += [truth_path, world_dir / "roadmask.grid", world_dir / "scenes", catalog]
    run.outputs += [world_dir / "fixtures", world_dir / "extent.txt"]
    print(
        f"world: {world.truth.nrows}x{world.truth.ncols} cells, "
        f"{world.parcel_classes.size} parcels, {len(manifests)} scenes, "
        f"{n_fixtures} campaign fixtures"
    )
    print(f"training catalog: {catalog}")


def _grid_bbox(run: _Run) -> BoundingBox:
    bbox = run.cfg.bbox()
    if bbox is not None:
        return bbox
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
    spacing = run.cfg.get_float("grid.spacing_m", 30.0)
    points = make_sampling_grid(bbox, spacing)
    out = run.output_path("paths.grid_csv", "grid.csv")
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["lat", "lon"])
        for p in points:
            writer.writerow([repr(p.lat_deg), repr(p.lon_deg)])
    print(f"{len(points)} sampling points at {spacing} m -> {out}")


def _cmd_fetch(run: _Run):
    grid_csv = run.input_path("paths.grid_csv", "grid.csv")
    fixtures = run.input_path("paths.fixtures", "world/fixtures")
    index = FixtureIndex(fixtures)
    out = run.output_path("paths.campaign_catalog", "campaign.csv")
    points = imageclassifier.read_csv_rows(
        grid_csv, ["lat", "lon"], lambda row: GeoPoint(float(row["lat"]), float(row["lon"])),
        "sampling grid",
    )
    # a fixture can satisfy several nearby grid points; keep the first hit
    unique: dict[str, LabeledImage] = {}
    hits = misses = 0
    for point in points:
        for heading in Heading:
            try:
                rec = index.fetch(StreetRequest(point, heading))
            except FixtureNotFoundError:
                misses += 1
                continue
            hits += 1
            unique.setdefault(rec.id, LabeledImage(rec))
    imageclassifier.write_catalog(unique.values(), run.cfg.taxonomy, out)
    print(
        f"fetched {len(unique)} images "
        f"({hits - len(unique)} duplicate hits, {misses} misses) -> {out}"
    )


def _cmd_train_images(run: _Run):
    cfg = run.cfg
    labeled = _labeled_catalog(run, "paths.training_catalog", "world/training/catalog.csv")
    ratios = cfg.get_floats("split.ratios", (0.6, 0.2, 0.2))
    train_set, val_set, test_set = imageclassifier.split_dataset(labeled, ratios, cfg.seed)
    tcfg = cfg.train_config(default_epochs=30)
    net, history = imageclassifier.train_image_classifier(
        train_set, val_set, cfg.taxonomy, cfg=tcfg
    )
    model_path = run.output_path("paths.image_model", "image_model.rtnn")
    neuralnet.serialize_model(net, model_path)
    x_test, y_test = imageclassifier.images_to_arrays(test_set)
    pred, _ = neuralnet.predict_batch(net, x_test)
    cm = metrics.confusion_matrix(pred, y_test, cfg.taxonomy.class_names)
    txt = run.output_path("paths.image_confusion", "image_test_confusion.txt")
    txt.write_text(metrics.confusion_to_text(cm))
    run.output_path("paths.image_confusion_csv", "image_test_confusion.csv").write_text(
        metrics.confusion_to_csv(cm)
    )
    hist = run.output_path("paths.image_history", "image_history.csv")
    hist.write_text(
        "epoch,val_accuracy\n"
        + "".join(f"{i + 1},{a:.6f}\n" for i, a in enumerate(history))
    )
    oa = metrics.overall_accuracy(cm)
    print(f"trained on {len(train_set)} images; test OA = {oa:.4f}")
    print(metrics.confusion_to_text(cm))


def _cmd_classify_images(run: _Run):
    cfg = run.cfg
    model_path = run.input_path("paths.image_model", "image_model.rtnn")
    catalog = run.input_path("paths.campaign_catalog", "campaign.csv")
    net = neuralnet.deserialize_model(model_path)
    records = [li.record for li in imageclassifier.read_catalog(catalog, cfg.taxonomy)]
    labeled = imageclassifier.classify_images(net, records)
    out = run.output_path("paths.classified_catalog", "classified.csv")
    imageclassifier.write_catalog(labeled, cfg.taxonomy, out)
    per_class = {name: 0 for name in cfg.taxonomy.class_names}
    for li in labeled:
        per_class[cfg.taxonomy.class_names[li.label]] += 1
    print(f"classified {len(labeled)} images -> {out}")
    for name, count in per_class.items():
        print(f"  {name}: {count}")


def _cmd_qc(run: _Run):
    cfg = run.cfg
    labeled = _labeled_catalog(run, "paths.classified_catalog", "classified.csv")
    rejection_path = cfg.path("qc.rejection_list")
    rejection_ids = set()
    if rejection_path is not None:
        run.inputs.append(rejection_path)
        rejection_ids = imageclassifier.read_rejection_list(rejection_path)
    kept, dropped = imageclassifier.qc_filter(
        labeled,
        cfg.taxonomy,
        min_confidence=cfg.get_float("qc.min_confidence", 0.5),
        rejection_ids=rejection_ids,
    )
    for subset, key, name in ((kept, "paths.kept_catalog", "kept.csv"),
                              (dropped, "paths.dropped_catalog", "dropped.csv")):
        imageclassifier.write_catalog(subset, cfg.taxonomy, run.output_path(key, name))
    print(f"kept {len(kept)}, dropped {len(dropped)} (others/low-confidence/rejected)")


def _cmd_make_refs(run: _Run):
    cfg = run.cfg
    kept = _labeled_catalog(run, "paths.kept_catalog", "kept.csv")
    result = refgen.generate_reference_points(
        kept, cfg.shift_params(), min_per_class=cfg.get_int("refs.min_per_class", 0)
    )
    points = list(result.points)
    others_count = cfg.get_int("refs.others_count", 0)
    if others_count > 0:
        truth = _truth(run)
        points += refgen.sample_class_points(
            truth, cfg.taxonomy.others_index, others_count, cfg.seed
        )
    out = run.output_path("paths.refs_csv", "refs.csv")
    refgen.write_reference_csv(points, cfg.taxonomy, out)
    summary = run.output_path("paths.refs_summary", "refs_summary.txt")
    lines = [f"points={len(points)}"]
    for label in sorted(result.per_class_counts):
        lines.append(
            f"class.{cfg.taxonomy.class_names[label]}={result.per_class_counts[label]}"
        )
    if others_count:
        lines.append(f"class.others.sampled_from_truth={others_count}")
    for label, n in sorted(result.short_classes.items()):
        lines.append(f"short.{cfg.taxonomy.class_names[label]}={n}")
    summary.write_text("\n".join(lines) + "\n")
    print(f"{len(points)} reference points -> {out}")
    if result.short_classes:
        names = {cfg.taxonomy.class_names[c]: n for c, n in result.short_classes.items()}
        print(f"still short after augmentation: {names}")


def _cmd_validate_refs(run: _Run):
    cfg = run.cfg
    refs_csv = run.input_path("paths.refs_csv", "refs.csv")
    points = refgen.read_reference_csv(refs_csv, cfg.taxonomy)
    truth = _truth(run)
    report, disagreeing = refgen.validate_reference_points(points, truth, cfg.taxonomy)
    run.output_path("paths.refs_agreement", "refs_agreement.txt").write_text(
        metrics.agreement_to_text(report)
    )
    run.output_path("paths.refs_agreement_csv", "refs_agreement.csv").write_text(
        metrics.agreement_to_csv(report)
    )
    bad = run.output_path("paths.refs_disagreements", "refs_disagreements.csv")
    refgen.write_reference_csv(disagreeing, cfg.taxonomy, bad)
    print(metrics.agreement_to_text(report))
    print(f"{len(disagreeing)} disagreeing points -> {bad}")


def _cmd_select_features(run: _Run):
    cfg = run.cfg
    refs_csv = run.input_path("paths.refs_csv", "refs.csv")
    points = refgen.read_reference_csv(refs_csv, cfg.taxonomy)
    stack = _scenes(run)
    candidates = cfg.features("features.candidates", tuple(f.value for f in FeatureName))
    result = cropmapper.forward_select(
        candidates, points, stack, cfg.taxonomy, cfg.train_config(default_epochs=20)
    )
    report = cropmapper.selection_report_text(result)
    run.output_path("paths.selection_report", "selection.txt").write_text(report)
    selection_csv = run.output_path("paths.selection", "selection.csv")
    selection_csv.write_text("feature\n" + "".join(f.value + "\n" for f in result.selected))
    print(report)


def _cmd_train_mapper(run: _Run):
    cfg = run.cfg
    refs_csv = run.input_path("paths.refs_csv", "refs.csv")
    points = refgen.read_reference_csv(refs_csv, cfg.taxonomy)
    stack = _scenes(run)
    features = _selected_features(run)
    base_cfg = cfg.train_config(default_epochs=20)
    sweep = cfg.get_floats("net.dropout_grid")
    if sweep:
        results = []
        for rate in sweep:
            r = cropmapper.train_pixel_classifier(
                features, points, stack, cfg.taxonomy, replace(base_cfg, dropout_rate=rate)
            )
            results.append((rate, r))
        lines = ["dropout_rate,val_accuracy"]
        for rate, r in results:
            lines.append(f"{rate},{r.history[-1]:.6f}")
        run.output_path("paths.dropout_sweep", "dropout_sweep.csv").write_text(
            "\n".join(lines) + "\n"
        )
        best_rate, result = max(results, key=lambda t: t[1].history[-1])
        print(f"dropout sweep {sweep}: best rate {best_rate}")
    else:
        result = cropmapper.train_pixel_classifier(
            features, points, stack, cfg.taxonomy, base_cfg
        )
    model_path = run.output_path("paths.pixel_model", "pixel_model.rtnn")
    neuralnet.serialize_model(result.net, model_path)
    run.output_path("paths.pixel_confusion", "pixel_confusion.txt").write_text(
        metrics.confusion_to_text(result.confusion)
    )
    run.output_path("paths.pixel_confusion_csv", "pixel_confusion.csv").write_text(
        metrics.confusion_to_csv(result.confusion)
    )
    oa = metrics.overall_accuracy(result.confusion)
    print(
        f"pixel model on {result.n_train}+{result.n_val} points "
        f"({result.dropped_unusable} unusable dropped); held-out OA = {oa:.4f}"
    )


def _cmd_map(run: _Run):
    cfg = run.cfg
    model_path = run.input_path("paths.pixel_model", "pixel_model.rtnn")
    net = neuralnet.deserialize_model(model_path)
    stack = _scenes(run)
    features = _selected_features(run)
    bbox = cfg.bbox()
    if bbox is None:
        t = stack.template
        bbox = BoundingBox(
            t.yll, t.yll + t.nrows * t.cellsize, t.xll, t.xll + t.ncols * t.cellsize
        )
    crop_map = cropmapper.predict_crop_map(net, stack, features, bbox, cfg.taxonomy)
    map_path = run.output_path("paths.map_grid", "crop_map.grid")
    legend = cropmapper.write_crop_map(crop_map, map_path)
    run.outputs.append(legend)
    counts = metrics.area_counts(crop_map.grid)
    named = {cfg.taxonomy.class_names[i]: n for i, n in sorted(counts.items())}
    print(f"map {crop_map.grid.nrows}x{crop_map.grid.ncols} -> {map_path}")
    print(f"area counts: {named}")


def _cmd_evaluate(run: _Run):
    cfg = run.cfg
    map_path = run.input_path("paths.map_grid", "crop_map.grid")
    crop_map = cropmapper.read_crop_map(map_path, cfg.taxonomy)
    truth = _truth(run)
    ev = cropmapper.evaluate_crop_map(crop_map, truth)
    text = metrics.confusion_to_text(ev.confusion) + "\n" + metrics.agreement_to_text(ev.agreement)
    run.output_path("paths.evaluation", "evaluation.txt").write_text(text)
    run.output_path("paths.map_confusion_csv", "map_confusion.csv").write_text(
        metrics.confusion_to_csv(ev.confusion)
    )
    run.output_path("paths.map_agreement_csv", "map_agreement.csv").write_text(
        metrics.agreement_to_csv(ev.agreement)
    )
    area_csv = run.output_path("paths.area_counts", "area_counts.csv")
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="streetcrop", description=__doc__.split("\n\n")[0])
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help=", ".join(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the run config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
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
