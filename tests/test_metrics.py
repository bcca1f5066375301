import numpy as np
import pytest

from conftest import make_grid
from streetcrop.errors import DataValidationError
from streetcrop.metrics import (
    AgreementReport,
    ConfusionMatrix,
    UndefinedMetricError,
    agreement_report,
    agreement_to_csv,
    area_counts,
    confusion_matrix,
    confusion_to_csv,
    confusion_to_text,
    overall_accuracy,
    percent,
    producer_accuracy,
    user_accuracy,
)
from streetcrop.rasterstack import OutOfExtentError


# Published test-set confusion matrices for the two study regions.
# Rows are predicted, columns are reference.

CA_CLASSES = ("alfalfa", "almond", "corn", "cotton", "grape", "others", "pistachio")
CA_COUNTS = np.array(
    [
        [174, 0, 3, 11, 0, 0, 0],
        [0, 129, 0, 1, 2, 0, 2],
        [1, 1, 101, 16, 0, 0, 1],
        [0, 0, 0, 116, 0, 0, 0],
        [0, 1, 1, 1, 118, 0, 1],
        [1, 1, 0, 0, 0, 142, 0],
        [0, 10, 3, 0, 4, 1, 109],
    ]
)

IL_CLASSES = ("corn", "others", "soybean")
IL_COUNTS = np.array(
    [
        [118, 3, 5],
        [0, 139, 0],
        [1, 4, 119],
    ]
)


@pytest.fixture
def ca():
    return ConfusionMatrix(CA_CLASSES, CA_COUNTS)


@pytest.fixture
def il():
    return ConfusionMatrix(IL_CLASSES, IL_COUNTS)


class TestPublishedMatrices:
    def test_illinois_corn(self, il):
        assert producer_accuracy(il, "corn") == pytest.approx(118 / 119)
        assert user_accuracy(il, "corn") == pytest.approx(118 / 126)

    def test_illinois_overall(self, il):
        assert il.trace == 376
        assert il.total == 389
        assert round(overall_accuracy(il), 2) == 0.97

    def test_illinois_all_classes(self, il):
        assert round(producer_accuracy(il, "others"), 2) == 0.95
        assert round(producer_accuracy(il, "soybean"), 2) == 0.96
        assert round(user_accuracy(il, "others"), 2) == 1.0
        assert round(user_accuracy(il, "soybean"), 2) == 0.96

    def test_california_overall(self, ca):
        assert ca.trace == 889
        assert round(overall_accuracy(ca), 2) == 0.93

    def test_california_spot_checks(self, ca):
        # alfalfa PA runs down the column: 174 of 176 reference samples
        assert producer_accuracy(ca, "alfalfa") == pytest.approx(174 / 176)
        assert round(producer_accuracy(ca, "cotton"), 2) == 0.80
        assert round(user_accuracy(ca, "corn"), 2) == 0.84
        assert round(user_accuracy(ca, "cotton"), 2) == 1.0
        assert round(user_accuracy(ca, "pistachio"), 2) == 0.86


class TestConfusionMatrix:
    def test_pairs_reconstructed_from_published_matrix(self, il):
        # expand the published counts into (pred, truth) pairs and count
        # them back: the op must reproduce the matrix exactly
        pred, truth = [], []
        for i in range(3):
            for j in range(3):
                pred += [i] * int(IL_COUNTS[i, j])
                truth += [j] * int(IL_COUNTS[i, j])
        cm = confusion_matrix(pred, truth, IL_CLASSES)
        np.testing.assert_array_equal(cm.counts, IL_COUNTS)

    def test_identical_sequences_are_diagonal(self):
        cm = confusion_matrix([0, 1, 2, 1], [0, 1, 2, 1], ("a", "b", "c"))
        assert cm.trace == cm.total == 4
        assert overall_accuracy(cm) == 1.0

    def test_single_off_diagonal_pair(self):
        cm = confusion_matrix([0], [1], ("corn", "soybean"))
        assert cm.counts[0, 1] == 1
        assert cm.counts.sum() == 1

    def test_length_mismatch(self):
        with pytest.raises(DataValidationError):
            confusion_matrix([0, 1], [0], ("a", "b"))

    def test_unknown_label(self):
        with pytest.raises(DataValidationError):
            confusion_matrix([0, 5], [0, 1], ("a", "b"))

    def test_zero_denominator_raises(self):
        cm = ConfusionMatrix(("a", "b"), np.array([[3, 1], [0, 0]]))
        with pytest.raises(UndefinedMetricError):
            user_accuracy(cm, "b")
        cm2 = ConfusionMatrix(("a", "b"), np.array([[3, 0], [1, 0]]))
        with pytest.raises(UndefinedMetricError):
            producer_accuracy(cm2, "b")

    def test_accounting_identity(self, ca):
        # sum over classes of column_sum * PA equals the trace equals
        # sum of row_sum * UA
        k = len(ca.class_names)
        pa_side = sum(
            ca.counts[:, j].sum() * producer_accuracy(ca, j) for j in range(k)
        )
        ua_side = sum(ca.counts[i, :].sum() * user_accuracy(ca, i) for i in range(k))
        assert pa_side == pytest.approx(ca.trace)
        assert ua_side == pytest.approx(ca.trace)

    def test_permutation_preserves_per_class_metrics(self, ca):
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(ca.class_names))
        permuted = ConfusionMatrix(
            tuple(ca.class_names[i] for i in perm), ca.counts[np.ix_(perm, perm)]
        )
        for name in ca.class_names:
            assert producer_accuracy(permuted, name) == producer_accuracy(ca, name)
            assert user_accuracy(permuted, name) == user_accuracy(ca, name)
        assert overall_accuracy(permuted) == overall_accuracy(ca)

    def test_concatenation_is_additive(self):
        rng = np.random.default_rng(1)
        pred1, truth1 = rng.integers(0, 3, 50), rng.integers(0, 3, 50)
        pred2, truth2 = rng.integers(0, 3, 30), rng.integers(0, 3, 30)
        classes = ("a", "b", "c")
        cm1 = confusion_matrix(pred1, truth1, classes)
        cm2 = confusion_matrix(pred2, truth2, classes)
        cm_all = confusion_matrix(
            np.concatenate([pred1, pred2]), np.concatenate([truth1, truth2]), classes
        )
        np.testing.assert_array_equal(cm_all.counts, cm1.counts + cm2.counts)


class TestPercentRounding:
    def test_rounds_half_up(self):
        assert percent(0.885) == 89
        assert percent(0.8986) == 90
        assert percent(173 / 195) == 89
        assert percent(0.5) == 50


class _Point:
    def __init__(self, location, label):
        self.location = location
        self.label = label


class TestAgreementReport:
    def truth_grid(self):
        return make_grid([[0.0, 1.0], [1.0, 0.0]], cellsize=0.001)

    def point(self, row, col, label):
        from streetcrop.geocore import GeoPoint

        lat = 0.001 * (2 - row) - 0.0005
        lon = 0.001 * col + 0.0005
        return _Point(GeoPoint(lat, lon), label)

    def test_all_matching(self):
        pts = [self.point(0, 0, 0), self.point(0, 1, 1), self.point(1, 0, 1)]
        report, _ = agreement_report(pts, self.truth_grid(), ("a", "b"))
        assert report.overall_fraction == 1.0
        assert report.fraction("a") == 1.0

    def test_empty_class_omitted(self):
        pts = [self.point(0, 0, 0)]
        report, _ = agreement_report(pts, self.truth_grid(), ("a", "b"))
        assert report.class_names == ("a",)

    def test_of_classes_keeps_the_classes_with_points(self):
        report = AgreementReport.of_classes(("a", "b", "c"), [1, 0, 2], [2, 0, 3])
        assert report == AgreementReport(("a", "c"), (1, 2), (2, 3))

    def test_out_of_extent_point(self):
        from streetcrop.geocore import GeoPoint

        pts = [_Point(GeoPoint(5.0, 5.0), 0)]
        with pytest.raises(OutOfExtentError):
            agreement_report(pts, self.truth_grid(), ("a", "b"))

    def test_published_corn_agreement(self):
        report = AgreementReport(("corn",), (1002,), (1115,))
        assert report.fraction("corn") == pytest.approx(0.8986, abs=1e-4)
        assert percent(report.fraction("corn")) == 90

    def test_matching_cannot_exceed_total(self):
        with pytest.raises(DataValidationError):
            AgreementReport(("a",), (5,), (4,))


class TestAreaCounts:
    def test_uniform_map(self):
        grid = make_grid(np.zeros((10, 10)))
        assert area_counts(grid) == {0: 100}

    def test_half_and_half(self):
        values = np.zeros((10, 10))
        values[5:] = 1.0
        assert area_counts(make_grid(values)) == {0: 50, 1: 50}

    def test_nodata_excluded(self):
        values = np.zeros((2, 2))
        values[0, 0] = -9999.0
        counts = area_counts(make_grid(values))
        assert counts == {0: 3}
        assert sum(counts.values()) == 3


class TestSerialization:
    def test_csv_has_class_rows_and_oa_line(self, il):
        text = confusion_to_csv(il)
        lines = text.strip().splitlines()
        assert lines[0] == "class,PA,UA"
        assert lines[1].startswith("corn,")
        assert lines[-1].startswith("OA,")
        assert f"{376 / 389:.6f}" in lines[-1]

    def test_text_table_mentions_all_classes(self, ca):
        text = confusion_to_text(ca)
        for name in ca.class_names:
            assert name in text
        assert "OA" in text

    def test_agreement_csv(self):
        report = AgreementReport(("corn", "soybean"), (98, 97), (100, 100))
        text = agreement_to_csv(report)
        assert "corn,98,100,0.980000" in text
        assert text.strip().splitlines()[-1].startswith("overall,195,200")
