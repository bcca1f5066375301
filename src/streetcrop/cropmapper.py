"""Pixel-based crop classification from reference points.

The model input for one pixel is its (1, T, F) temporal-spectral stack:
T acquisition dates by F selected features. Feature subsets are chosen
by greedy forward selection on validation accuracy — at most
K(K+1)/2 trainings for K candidates instead of the 1023 exhaustive
combinations — and the winning set feeds a full-extent map prediction
evaluated against an independent truth raster.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import neuralnet
from .errors import DataValidationError, read_input_text
from .geocore import BoundingBox
from .imageclassifier import LabelTaxonomy
from .metrics import AgreementReport, ConfusionMatrix, area_counts, confusion_matrix
from .neuralnet import Network, TrainConfig
from .rasterstack import (
    FeatureName,
    GeoreferenceMismatchError,
    RasterGrid,
    SceneStack,
    read_grid,
    write_grid,
)
from .refgen import ReferencePoint

#: Minimum reference points per class before pixel training is allowed.
MIN_POINTS_PER_CLASS = 5

#: Share of each class's usable points held out for validation.
VAL_FRACTION = 0.2


@dataclass(frozen=True)
class FeatureSelectionResult:
    selected: tuple[FeatureName, ...]
    step_accuracies: tuple[dict[FeatureName, float], ...]
    incumbent_history: tuple[float, ...]
    stopping_reason: str
    models_trained: int
    dropped_unusable: int


@dataclass
class PixelTrainResult:
    net: Network
    confusion: ConfusionMatrix
    history: list[float]
    dropped_unusable: int
    n_train: int
    n_val: int


@dataclass
class CropMap:
    grid: RasterGrid
    taxonomy: LabelTaxonomy


@dataclass
class MapEvaluation:
    confusion: ConfusionMatrix
    agreement: AgreementReport
    map_area_counts: dict[int, int]
    truth_area_counts: dict[int, int]


def _point_stacks(stack: SceneStack, points: Sequence[ReferencePoint]):
    """(x, y, dropped): model inputs and labels of every usable point."""
    cells = [stack.template.cell_index(pt.location) for pt in points]
    rows, cols = np.array(cells, dtype=np.intp).reshape(-1, 2).T
    matrix, _, usable = stack.fill_cells(rows, cols)
    if not usable.any():
        raise DataValidationError("no usable reference points")
    labels = np.array([pt.label for pt in points], dtype=np.int64)
    return matrix[usable][:, None], labels[usable], int((~usable).sum())


def _stratified_split(y: np.ndarray, seed: int):
    """Index split keeping at least one sample of every class per side."""
    rng = np.random.default_rng(seed)
    train_idx, val_idx = [], []
    for label in np.unique(y):
        members = np.flatnonzero(y == label)
        if members.size < 2:
            raise DataValidationError(
                f"class {int(label)} has {members.size} usable points; cannot split"
            )
        order = members[rng.permutation(members.size)]
        n_val = min(members.size - 1, max(1, int(round(members.size * VAL_FRACTION))))
        val_idx.extend(order[:n_val])
        train_idx.extend(order[n_val:])
    return np.array(sorted(train_idx)), np.array(sorted(val_idx))


def _train_once(x, y, train_idx, val_idx, n_classes: int, cfg: TrainConfig):
    spec = neuralnet.default_pixel_spec(x.shape[2], x.shape[3], n_classes)
    spec = neuralnet.clone_spec_with_dropout(spec, cfg.dropout_rate)
    net = neuralnet.build_network(spec, seed=cfg.seed)
    net, history = neuralnet.train(
        net, (x[train_idx], y[train_idx]), (x[val_idx], y[val_idx]), cfg
    )
    return net, history


def forward_select(
    refpoints: Sequence[ReferencePoint],
    stack: SceneStack,
    taxonomy: LabelTaxonomy,
    cfg: TrainConfig = TrainConfig(epochs=20),
) -> FeatureSelectionResult:
    """Greedy forward selection among the stack's features.

    Each step trains one model per remaining candidate appended to the
    incumbent set and keeps the best candidate only if it strictly
    improves validation accuracy; ties resolve to the earliest
    candidate in the FeatureName enumeration. All candidates within a
    step share one seed, so comparisons are not confounded by
    initialization noise. Points unusable for any candidate are dropped
    up front so every model sees identical samples. A step's candidates
    train in parallel, one per worker process (:func:`neuralnet._fan_out`).
    """
    candidates = stack.features
    if len(candidates) < 2:
        raise DataValidationError("forward selection needs at least 2 candidates")
    x_all, y, dropped = _point_stacks(stack, refpoints)
    train_idx, val_idx = _stratified_split(y, cfg.seed)

    enum_order = list(FeatureName)
    remaining = sorted(candidates, key=enum_order.index)
    selected: list[FeatureName] = []
    incumbent = 0.0
    step_accuracies: list[dict[FeatureName, float]] = []
    incumbent_history: list[float] = []
    models = 0
    reason = "exhausted"
    while remaining:
        step_seed = cfg.seed + 7919 * (len(selected) + 1)
        step_cfg = replace(cfg, seed=step_seed)

        def final_accuracy(k):
            cols = [candidates.index(f) for f in selected + [remaining[k]]]
            _, history = _train_once(
                x_all[..., cols], y, train_idx, val_idx, len(taxonomy), step_cfg
            )
            return history[-1]

        accuracies = dict(zip(remaining, neuralnet._fan_out(final_accuracy, len(remaining))))
        models += len(remaining)
        step_accuracies.append(accuracies)
        best = max(remaining, key=lambda f: accuracies[f])  # first max wins ties
        if accuracies[best] > incumbent:
            selected.append(best)
            remaining.remove(best)
            incumbent = accuracies[best]
            incumbent_history.append(incumbent)
        else:
            reason = "no_improvement"
            break
    return FeatureSelectionResult(
        tuple(selected),
        tuple(step_accuracies),
        tuple(incumbent_history),
        reason,
        models,
        dropped,
    )


def train_pixel_classifier(
    refpoints: Sequence[ReferencePoint],
    stack: SceneStack,
    taxonomy: LabelTaxonomy,
    cfg: TrainConfig = TrainConfig(epochs=20),
) -> PixelTrainResult:
    """Train the pixel network on reference-point stacks of the stack's features.

    Returns the network plus the held-out confusion matrix from the
    stratified 80/20 split. Unusable (fully masked) points are dropped
    with a count; a class missing from the reference set, or thinned
    below ``MIN_POINTS_PER_CLASS``, is an error.
    """
    labels = np.array([pt.label for pt in refpoints], dtype=np.int64)
    for idx, name in enumerate(taxonomy.class_names):
        n = int((labels == idx).sum()) if labels.size else 0
        if n < MIN_POINTS_PER_CLASS:
            raise DataValidationError(
                f"class {name!r} has {n} reference points; need {MIN_POINTS_PER_CLASS}"
            )
    x, y, dropped = _point_stacks(stack, refpoints)
    train_idx, val_idx = _stratified_split(y, cfg.seed)
    if np.unique(y[train_idx]).size != len(taxonomy):
        raise DataValidationError("a class vanished from the training split")
    net, history = _train_once(x, y, train_idx, val_idx, len(taxonomy), cfg)
    pred, _ = neuralnet.predict_batch(net, x[val_idx])
    cm = confusion_matrix(pred, y[val_idx], taxonomy.class_names)
    return PixelTrainResult(net, cm, history, dropped, len(train_idx), len(val_idx))


def predict_crop_map(
    net: Network,
    stack: SceneStack,
    extent: BoundingBox,
    taxonomy: LabelTaxonomy,
    batch_size: int = 1024,
) -> CropMap:
    """Classify every pixel whose center falls inside ``extent``.

    Pixels without a single valid observation for some feature become
    nodata. The output grid keeps the scenes' cell size and alignment.
    Rows are gap-filled in blocks of about ``batch_size`` pixels, spread
    over worker processes (:func:`neuralnet._fan_out`); each worker
    predicts its blocks in batches of its share of the network's inference
    batch and returns their labels.
    """
    expected = (1, stack.n_scenes, len(stack.features))
    if tuple(net.spec.input_shape) != expected:
        raise DataValidationError(
            f"network input {net.spec.input_shape} does not match {expected}; "
            "feature list inconsistent with training"
        )
    t = stack.template
    rows = [
        r
        for r in range(t.nrows)
        if extent.min_lat_deg <= t.yll + (t.nrows - r - 0.5) * t.cellsize <= extent.max_lat_deg
    ]
    cols = [
        c
        for c in range(t.ncols)
        if extent.min_lon_deg <= t.xll + (c + 0.5) * t.cellsize <= extent.max_lon_deg
    ]
    if not rows or not cols:
        raise DataValidationError("extent does not cover any scene pixels")
    r0, r1 = rows[0], rows[-1]
    c0, c1 = cols[0], cols[-1]
    # row blocks of about batch_size pixels each bound the memory in use
    block_rows = max(1, batch_size // (c1 - c0 + 1))
    tops = range(r0, r1 + 1, block_rows)
    inference_batch = neuralnet._worker_batch(net, len(tops))

    def fill_and_predict(k):
        bottom = min(tops[k] + block_rows, r1 + 1)
        matrix, _, usable = stack.fill_cells(slice(tops[k], bottom), slice(c0, c1 + 1))
        block = np.full(usable.shape, t.nodata)
        if usable.any():
            labels, _ = neuralnet.predict_batch(net, matrix[usable][:, None], inference_batch)
            block[usable] = labels
        return block

    out = np.concatenate(neuralnet._fan_out(fill_and_predict, len(tops)))
    grid = RasterGrid(
        ncols=out.shape[1],
        nrows=out.shape[0],
        xll=t.xll + c0 * t.cellsize,
        yll=t.yll + (t.nrows - 1 - r1) * t.cellsize,
        cellsize=t.cellsize,
        nodata=t.nodata,
        values=out,
    )
    return CropMap(grid, taxonomy)


def evaluate_crop_map(crop_map: CropMap, truth: RasterGrid) -> MapEvaluation:
    """Pixelwise confusion against a co-registered truth raster.

    Only cells valid in both maps are compared. The agreement report is
    the per-truth-class fraction mapped to the same class; area counts
    cover each map's own non-nodata cells.
    """
    grid = crop_map.grid
    if not grid.same_georef(truth):
        raise GeoreferenceMismatchError("crop map and truth raster are not co-registered")
    both = grid.valid_mask() & truth.valid_mask()
    pred = np.rint(grid.values[both]).astype(np.int64)
    ref = np.rint(truth.values[both]).astype(np.int64)
    cm = confusion_matrix(pred, ref, crop_map.taxonomy.class_names)
    col_sums = cm.counts.sum(axis=0)
    keep = [i for i in range(len(cm.class_names)) if col_sums[i] > 0]
    agreement = AgreementReport(
        tuple(cm.class_names[i] for i in keep),
        tuple(int(cm.counts[i, i]) for i in keep),
        tuple(int(col_sums[i]) for i in keep),
    )
    return MapEvaluation(cm, agreement, area_counts(grid), area_counts(truth))


# --------------------------------------------------------------------------
# Artifact files
# --------------------------------------------------------------------------


def write_crop_map(crop_map: CropMap, path: str | Path) -> Path:
    """Grid file plus an ``index=name`` legend sidecar."""
    path = Path(path)
    write_grid(crop_map.grid, path)
    legend = Path(str(path) + ".legend")
    lines = [f"{i}={name}" for i, name in enumerate(crop_map.taxonomy.class_names)]
    legend.write_text("\n".join(lines) + "\n")
    return legend


def read_crop_map(path: str | Path, taxonomy: LabelTaxonomy) -> CropMap:
    """A crop map whose ``index=name`` legend must list ``taxonomy``'s classes."""
    grid = read_grid(path)
    legend = Path(str(path) + ".legend")
    names = []
    for n, line in enumerate(read_input_text(legend, "legend sidecar").splitlines(), start=1):
        if not line.strip():
            continue
        idx, _, name = line.partition("=")
        if idx != str(len(names)):
            raise DataValidationError(
                f"{legend}:{n}: expected '{len(names)}=<class name>', got {line!r}"
            )
        names.append(name)
    if taxonomy.class_names != tuple(names):
        raise DataValidationError("legend does not match the provided taxonomy")
    return CropMap(grid, taxonomy)


def selection_report_text(result: FeatureSelectionResult) -> str:
    """Step-by-step table of evaluated input combinations."""
    lines = [f"{'MODEL INPUT':<56}ACCURACY"]
    chosen: list[str] = []
    for accuracies in result.step_accuracies:
        for feature, acc in accuracies.items():
            label = ", ".join(chosen + [feature.value])
            lines.append(f"{label:<56}{100.0 * acc:.2f}%")
        if len(chosen) < len(result.selected):
            chosen.append(result.selected[len(chosen)].value)
    selected = ", ".join(f.value for f in result.selected) or "(none)"
    lines.append("")
    lines.append(f"selected: {selected}")
    if result.incumbent_history:
        lines.append(f"validation accuracy: {100.0 * result.incumbent_history[-1]:.2f}%")
    lines.append(f"stopping reason: {result.stopping_reason}")
    lines.append(f"models trained: {result.models_trained}")
    return "\n".join(lines) + "\n"
