import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import kept_images_from_world, make_grid, mutate_csv_cell, world_shift_params
from streetcrop.errors import DataValidationError
from streetcrop.geocore import GeoPoint, Heading, ShiftParams, geo_distance
from streetcrop.imageclassifier import ILLINOIS, LabeledImage
from streetcrop.imagery import StreetImageRecord
from streetcrop.refgen import (
    REFERENCE_HEADER,
    generate_reference_points,
    read_reference_csv,
    sample_class_points,
    validate_reference_points,
    write_reference_csv,
)


def image_at(point, heading, label, idx=0):
    rec = StreetImageRecord(
        id=f"img_{label}_{idx}",
        capture_point=point,
        heading=heading,
        pixels=np.zeros((2, 2, 3), dtype=np.uint8),
    )
    return LabeledImage(rec, label, confidence=0.9)


SP = ShiftParams(road_width_y_m=12.0, pixel_size_x_m=30.0)


class TestGenerate:
    def images(self, n, label=0, heading=Heading.EAST):
        return [
            image_at(GeoPoint(0.001 * i, 0.002), heading, label, idx=i) for i in range(n)
        ]

    def test_no_augmentation_when_enough(self):
        result = generate_reference_points(self.images(10), SP, min_per_class=10)
        assert len(result.points) == 10
        assert all(p.extra_steps == 0 for p in result.points)
        assert result.short_classes == {}

    def test_augmentation_tops_up_short_class(self):
        result = generate_reference_points(self.images(5), SP, min_per_class=10)
        assert len(result.points) == 10
        steps = sorted(p.extra_steps for p in result.points)
        assert steps == [0] * 5 + [1] * 5

    def test_augmentation_never_duplicates_image_step_pairs(self):
        result = generate_reference_points(self.images(3), SP, min_per_class=50)
        pairs = [(p.source_image_id, p.extra_steps) for p in result.points]
        assert len(pairs) == len(set(pairs))

    def test_cap_leaves_class_short_and_reports_it(self):
        result = generate_reference_points(self.images(2), SP, min_per_class=50)
        # 2 images x steps {0,1,2,3} = 8 points maximum
        assert len(result.points) == 8
        assert result.short_classes == {0: 8}

    def test_east_facing_image_shifts_due_east(self):
        li = image_at(GeoPoint(0.0, 0.0), Heading.EAST, 0)
        (point,) = generate_reference_points([li], SP).points
        assert point.location.lat_deg == 0.0
        assert point.location.lon_deg > 0

    def test_displacement_equals_shift_m(self):
        for heading in Heading:
            li = image_at(GeoPoint(0.001, 0.001), heading, 0)
            (point,) = generate_reference_points([li], SP).points
            d = geo_distance(li.record.capture_point, point.location)
            assert d == pytest.approx(point.shift_m, abs=1e-2)
            assert point.shift_m == SP.shift_m

    def test_points_from_one_image_are_collinear(self):
        li = image_at(GeoPoint(0.0, 0.0), Heading.NORTH, 0)
        result = generate_reference_points([li], SP, min_per_class=4)
        lons = {p.location.lon_deg for p in result.points}
        assert lons == {0.0}
        lats = [p.location.lat_deg for p in result.points]
        assert lats == sorted(lats)

    def test_provenance_fields(self):
        li = image_at(GeoPoint(0.0, 0.0), Heading.EAST, 1, idx=7)
        (point,) = generate_reference_points([li], SP).points
        assert point.source_image_id == "img_1_7"
        assert point.label == 1
        assert point.confidence == pytest.approx(0.9)


class TestValidate:
    def test_all_matching(self):
        truth = make_grid(np.zeros((4, 4)), cellsize=0.001)
        points = sample_class_points(truth, 0, 5, seed=1)
        report, disagreeing = validate_reference_points(points, truth, ILLINOIS)
        assert report.overall_fraction == 1.0
        assert disagreeing == []

    def test_disagreements_are_returned(self):
        values = np.zeros((4, 4))
        values[0, :] = 1.0
        truth = make_grid(values, cellsize=0.001)
        points = sample_class_points(truth, 0, 5, seed=1)
        # relabel one point wrongly
        from dataclasses import replace

        points[0] = replace(points[0], label=1)
        report, disagreeing = validate_reference_points(points, truth, ILLINOIS)
        assert len(disagreeing) == 1
        assert disagreeing[0].source_image_id == points[0].source_image_id

    def test_synthetic_world_agreement(self, il_world):
        kept = kept_images_from_world(il_world, stride=4)
        result = generate_reference_points(kept, world_shift_params(il_world))
        report, _ = validate_reference_points(result.points, il_world.truth, ILLINOIS)
        for name in report.class_names:
            assert report.fraction(name) >= 0.94


class TestSampleClassPoints:
    def test_labels_and_count(self):
        truth = make_grid(np.ones((5, 5)), cellsize=0.001)
        points = sample_class_points(truth, 1, 10, seed=2)
        assert len(points) == 10
        assert all(p.label == 1 for p in points)
        assert all(p.shift_m == 0.0 for p in points)

    def test_deterministic(self):
        truth = make_grid(np.ones((5, 5)), cellsize=0.001)
        a = sample_class_points(truth, 1, 10, seed=2)
        b = sample_class_points(truth, 1, 10, seed=2)
        assert [p.source_image_id for p in a] == [p.source_image_id for p in b]

    def test_too_few_cells(self):
        truth = make_grid(np.zeros((2, 2)), cellsize=0.001)
        with pytest.raises(DataValidationError):
            sample_class_points(truth, 0, 10, seed=1)


class TestReferenceCsv:
    def test_round_trip(self, tmp_path):
        images = [
            image_at(GeoPoint(0.001, 0.002), Heading.EAST, 0, idx=0),
            image_at(GeoPoint(0.003, 0.004), Heading.WEST, 1, idx=1),
        ]
        points = generate_reference_points(images, SP).points
        path = tmp_path / "refs.csv"
        write_reference_csv(points, ILLINOIS, path)
        back = read_reference_csv(path, ILLINOIS)
        assert back == points

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataValidationError):
            read_reference_csv(tmp_path / "absent.csv", ILLINOIS)

    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        row=st.integers(0, 1),
        column=st.integers(0, len(REFERENCE_HEADER)),
        value=st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    )
    def test_mutated_rows_raise_only_data_errors(self, tmp_path, row, column, value):
        images = [
            image_at(GeoPoint(0.001, 0.002), Heading.EAST, 0, idx=0),
            image_at(GeoPoint(0.003, 0.004), Heading.WEST, 1, idx=1),
        ]
        path = tmp_path / "refs.csv"
        write_reference_csv(generate_reference_points(images, SP).points, ILLINOIS, path)
        mutate_csv_cell(path, row, column, value)
        try:
            read_reference_csv(path, ILLINOIS)
        except DataValidationError as exc:
            assert str(path) in str(exc)
