"""Confusion matrices, accuracy metrics, agreement, and area counts.

Matrix orientation is fixed: rows are the predicted class, columns the
reference class. Producer accuracy (PA) runs down a column, user
accuracy (UA) along a row, overall accuracy (OA) is trace over total.
A zero denominator raises :class:`UndefinedMetricError` instead of
silently returning 0, so a degenerate evaluation cannot look passing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataValidationError
from .rasterstack import RasterGrid, sample_pixel


class UndefinedMetricError(DataValidationError):
    """Metric denominator is zero."""


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[i][j] = number of samples predicted i whose reference is j."""

    class_names: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        k = len(self.class_names)
        if counts.shape != (k, k):
            raise DataValidationError(f"counts shape {counts.shape} != ({k}, {k})")
        if (counts < 0).any():
            raise DataValidationError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def trace(self) -> int:
        return int(np.trace(self.counts))

    def class_index(self, cls) -> int:
        if isinstance(cls, str):
            try:
                return self.class_names.index(cls)
            except ValueError:
                raise DataValidationError(f"unknown class {cls!r}") from None
        idx = int(cls)
        if not (0 <= idx < len(self.class_names)):
            raise DataValidationError(f"class index {idx} out of range")
        return idx


def confusion_matrix(
    pred: Sequence[int], truth: Sequence[int], classes: Sequence[str]
) -> ConfusionMatrix:
    """Count (predicted, reference) pairs over aligned label sequences."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise DataValidationError("pred and truth must be equal-length 1-d sequences")
    k = len(classes)
    if pred.size and (
        pred.min() < 0 or pred.max() >= k or truth.min() < 0 or truth.max() >= k
    ):
        raise DataValidationError("label outside the class list")
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (pred, truth), 1)
    return ConfusionMatrix(tuple(classes), counts)


def producer_accuracy(cm: ConfusionMatrix, cls) -> float:
    """Diagonal over column sum: how much of the reference class was found."""
    j = cm.class_index(cls)
    col = int(cm.counts[:, j].sum())
    if col == 0:
        raise UndefinedMetricError(f"no reference samples for {cm.class_names[j]}")
    return float(cm.counts[j, j]) / col


def user_accuracy(cm: ConfusionMatrix, cls) -> float:
    """Diagonal over row sum: how much of the predicted class is right."""
    i = cm.class_index(cls)
    row = int(cm.counts[i, :].sum())
    if row == 0:
        raise UndefinedMetricError(f"no predictions for {cm.class_names[i]}")
    return float(cm.counts[i, i]) / row


def overall_accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise UndefinedMetricError("empty confusion matrix")
    return cm.trace / cm.total


def percent(fraction: float) -> int:
    """Integer percent, rounding half up (matches published tables)."""
    return int(math.floor(fraction * 100.0 + 0.5))


@dataclass(frozen=True)
class AgreementReport:
    """Per-class (matching, total) counts plus the overall fraction."""

    class_names: tuple[str, ...]
    matching: tuple[int, ...]
    totals: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.class_names) == len(self.matching) == len(self.totals)):
            raise DataValidationError("report fields must be aligned")
        for m, t in zip(self.matching, self.totals):
            if m > t or m < 0:
                raise DataValidationError("matching count exceeds total")

    @classmethod
    def of_classes(cls, class_names, matching, totals) -> "AgreementReport":
        """The report over the classes with points, from per-class counts."""
        keep = [i for i, t in enumerate(totals) if t > 0]
        return cls(*(tuple(v[i] for i in keep) for v in (class_names, matching, totals)))

    def fraction(self, cls) -> float:
        idx = self.class_names.index(cls) if isinstance(cls, str) else int(cls)
        if self.totals[idx] == 0:
            raise UndefinedMetricError(f"no points for {self.class_names[idx]}")
        return self.matching[idx] / self.totals[idx]

    @property
    def overall_fraction(self) -> float:
        total = sum(self.totals)
        if total == 0:
            raise UndefinedMetricError("empty agreement report")
        return sum(self.matching) / total


def agreement_report(points, truth: RasterGrid, class_names: Sequence[str]) -> tuple:
    """Fraction of labeled points whose class matches the truth raster.

    ``points`` is any iterable of objects with ``location`` (GeoPoint)
    and ``label`` (class index). Returns the :class:`AgreementReport`
    (classes with zero points omitted) and the list of points whose cell
    does not match, each cell sampled once. A point outside the truth
    extent is an error.
    """
    k = len(class_names)
    matching = [0] * k
    totals = [0] * k
    disagreeing = []
    for pt in points:
        label = int(pt.label)
        if not (0 <= label < k):
            raise DataValidationError(f"label {label} outside the class list")
        value = sample_pixel(truth, pt.location)
        totals[label] += 1
        if value != truth.nodata and int(value) == label:
            matching[label] += 1
        else:
            disagreeing.append(pt)
    return AgreementReport.of_classes(class_names, matching, totals), disagreeing


def area_counts(class_map: RasterGrid) -> dict[int, int]:
    """Pixel count per class over non-nodata cells."""
    values = class_map.values[class_map.valid_mask()]
    classes, counts = np.unique(np.rint(values).astype(np.int64), return_counts=True)
    return {int(c): int(n) for c, n in zip(classes, counts)}


# --------------------------------------------------------------------------
# Report serialization: a human-readable table and a machine CSV with
# one class,PA,UA row per class plus a final OA line.
# --------------------------------------------------------------------------


def _safe(metric, *args) -> float | None:
    try:
        return metric(*args)
    except UndefinedMetricError:
        return None


def confusion_to_csv(cm: ConfusionMatrix) -> str:
    lines = ["class,PA,UA"]
    for name in cm.class_names:
        pa = _safe(producer_accuracy, cm, name)
        ua = _safe(user_accuracy, cm, name)
        lines.append(
            f"{name},{'' if pa is None else format(pa, '.6f')},"
            f"{'' if ua is None else format(ua, '.6f')}"
        )
    oa = _safe(overall_accuracy, cm)
    lines.append(f"OA,{'' if oa is None else format(oa, '.6f')}")
    return "\n".join(lines) + "\n"


def confusion_to_text(cm: ConfusionMatrix) -> str:
    names = cm.class_names
    width = max(9, max(len(n) for n in names) + 1)
    header = " " * width + "".join(f"{n:>{width}}" for n in names) + f"{'UA':>{width}}"
    lines = [header]
    for i, name in enumerate(names):
        row = f"{name:<{width}}" + "".join(f"{int(v):>{width}}" for v in cm.counts[i])
        ua = _safe(user_accuracy, cm, i)
        row += f"{'--' if ua is None else format(ua, '.2f'):>{width}}"
        lines.append(row)
    pa_row = f"{'PA':<{width}}"
    for j in range(len(names)):
        pa = _safe(producer_accuracy, cm, j)
        pa_row += f"{'--' if pa is None else format(pa, '.2f'):>{width}}"
    oa = _safe(overall_accuracy, cm)
    pa_row += f"{'--' if oa is None else format(oa, '.2f'):>{width}}"
    lines.append(pa_row)
    lines.append(f"OA = {'--' if oa is None else format(oa, '.4f')} ({cm.trace}/{cm.total})")
    return "\n".join(lines) + "\n"


def agreement_to_csv(report: AgreementReport) -> str:
    lines = ["class,matching,total,fraction"]
    for name, m, t in zip(report.class_names, report.matching, report.totals):
        lines.append(f"{name},{m},{t},{m / t:.6f}")
    lines.append(
        f"overall,{sum(report.matching)},{sum(report.totals)},{report.overall_fraction:.6f}"
    )
    return "\n".join(lines) + "\n"


def agreement_to_text(report: AgreementReport) -> str:
    width = max(10, max(len(n) for n in report.class_names) + 1)
    lines = [f"{'class':<{width}}{'agreement':>12}{'counts':>16}"]
    for name, m, t in zip(report.class_names, report.matching, report.totals):
        lines.append(f"{name:<{width}}{100.0 * m / t:>11.2f}%{f'{m}/{t}':>16}")
    m, t = sum(report.matching), sum(report.totals)
    lines.append(f"{'overall':<{width}}{100.0 * m / t:>11.2f}%{f'{m}/{t}':>16}")
    return "\n".join(lines) + "\n"
