import datetime

import numpy as np
import pytest

from conftest import (
    assert_no_child_left,
    force_workers,
    kept_images_from_world,
    make_grid,
    world_shift_params,
    write_scene,
)
from streetcrop import neuralnet as nn
from streetcrop import rasterstack
from streetcrop.cropmapper import (
    evaluate_crop_map,
    forward_select,
    predict_crop_map,
    read_crop_map,
    selection_report_text,
    train_pixel_classifier,
    write_crop_map,
    CropMap,
)
from streetcrop.errors import DataValidationError
from streetcrop.geocore import BoundingBox
from streetcrop.imageclassifier import ILLINOIS, LabelTaxonomy
from streetcrop.metrics import overall_accuracy
from streetcrop.rasterstack import (
    BAND_NAMES,
    FeatureName,
    GeoreferenceMismatchError,
    SceneStack,
)
from streetcrop.refgen import generate_reference_points, sample_class_points

FAST_CFG = nn.TrainConfig(epochs=20, seed=0)

TWO_CLASS = LabelTaxonomy("toy", ("cropA", "others"))


def planted_scenes(tmp_path, features, n_dates=6, n=8, informative="SWIR2"):
    """A SceneStack of ``features`` over scenes where exactly one band
    separates two classes.

    Class 0 occupies the top half of an n x n grid, class 1 the bottom.
    Every band is identical between classes except ``informative``.
    """
    rng = np.random.default_rng(0)
    dates = [datetime.date(2013, 4, 1) + datetime.timedelta(days=20 * i) for i in range(n_dates)]
    truth = np.zeros((n, n))
    truth[n // 2 :] = 1.0
    scenes = []
    for i, date in enumerate(dates):
        bands = {}
        for band in BAND_NAMES:
            base = rng.uniform(0.2, 0.4)
            values = np.full((n, n), base) + rng.normal(0, 0.01, size=(n, n))
            if band == informative:
                values[n // 2 :] += 0.3
            bands[band] = np.clip(values, 0, 1)
        scenes.append(write_scene(tmp_path / f"s{i}", date, bands, np.zeros((n, n))))
    return SceneStack.from_manifests(scenes, features), make_grid(truth, cellsize=0.001)


def planted_points(truth):
    pts = sample_class_points(truth, 0, 28, seed=1)
    pts += sample_class_points(truth, 1, 28, seed=2)
    return pts


class TestForwardSelect:
    def test_informative_feature_selected_noise_rejected(self, tmp_path):
        stack, truth = planted_scenes(
            tmp_path, [FeatureName.Red, FeatureName.SWIR2], informative="SWIR2"
        )
        points = planted_points(truth)
        # Red precedes SWIR2 in the tie-break order, so winning on order
        # alone is impossible: SWIR2 must win on accuracy.
        result = forward_select(points, stack, TWO_CLASS, FAST_CFG)
        assert result.selected[0] == FeatureName.SWIR2
        assert FeatureName.Red not in result.selected
        assert result.stopping_reason == "no_improvement"

    def test_incumbent_history_strictly_increasing(self, tmp_path):
        stack, truth = planted_scenes(
            tmp_path, [FeatureName.Red, FeatureName.Blue, FeatureName.SWIR2]
        )
        points = planted_points(truth)
        result = forward_select(points, stack, TWO_CLASS, FAST_CFG)
        hist = result.incumbent_history
        assert all(b > a for a, b in zip(hist, hist[1:]))

    def test_model_count_bounded_by_triangular_number(self, tmp_path):
        candidates = [FeatureName.Red, FeatureName.Green, FeatureName.Blue, FeatureName.SWIR2]
        stack, truth = planted_scenes(tmp_path, candidates)
        points = planted_points(truth)
        result = forward_select(points, stack, TWO_CLASS, FAST_CFG)
        k = len(candidates)
        assert result.models_trained <= k * (k + 1) // 2

    def test_selected_beats_best_single_feature(self, tmp_path):
        stack, truth = planted_scenes(tmp_path, [FeatureName.Red, FeatureName.SWIR2])
        points = planted_points(truth)
        result = forward_select(points, stack, TWO_CLASS, FAST_CFG)
        best_single = max(result.step_accuracies[0].values())
        assert result.incumbent_history[-1] >= best_single

    def test_fewer_than_two_candidates_rejected(self, tmp_path):
        stack, truth = planted_scenes(tmp_path, [FeatureName.NDVI])
        with pytest.raises(DataValidationError):
            forward_select(planted_points(truth), stack, TWO_CLASS, FAST_CFG)

    def test_duplicate_candidates_rejected(self, tmp_path):
        with pytest.raises(DataValidationError):
            planted_scenes(tmp_path, [FeatureName.NDVI, FeatureName.NDVI])

    def test_report_text(self, tmp_path):
        stack, truth = planted_scenes(tmp_path, [FeatureName.Red, FeatureName.SWIR2])
        result = forward_select(planted_points(truth), stack, TWO_CLASS, FAST_CFG)
        report = selection_report_text(result)
        assert "MODEL INPUT" in report
        assert "SWIR2" in report
        assert "selected:" in report


class TestTrainPixelClassifier:
    def test_single_class_rejected(self, tmp_path):
        stack, truth = planted_scenes(tmp_path, [FeatureName.SWIR2])
        points = sample_class_points(truth, 0, 20, seed=1)
        with pytest.raises(DataValidationError):
            train_pixel_classifier(points, stack, TWO_CLASS, FAST_CFG)

    def test_minimum_points_per_class(self, tmp_path):
        stack, truth = planted_scenes(tmp_path, [FeatureName.SWIR2])
        points = sample_class_points(truth, 0, 20, seed=1)
        points += sample_class_points(truth, 1, 3, seed=2)
        with pytest.raises(DataValidationError):
            train_pixel_classifier(points, stack, TWO_CLASS, FAST_CFG)

    def test_learns_planted_separation(self, tmp_path):
        stack, truth = planted_scenes(tmp_path, [FeatureName.SWIR2])
        result = train_pixel_classifier(planted_points(truth), stack, TWO_CLASS, FAST_CFG)
        assert overall_accuracy(result.confusion) >= 0.9
        rates = [ls.rate for ls in result.net.spec.layers if isinstance(ls, nn.Dropout)]
        assert rates == [FAST_CFG.dropout_rate]

    def test_same_seed_identical_confusion(self, tmp_path):
        stack, truth = planted_scenes(tmp_path, [FeatureName.SWIR2])
        points = planted_points(truth)
        a = train_pixel_classifier(points, stack, TWO_CLASS, FAST_CFG)
        b = train_pixel_classifier(points, stack, TWO_CLASS, FAST_CFG)
        np.testing.assert_array_equal(a.confusion.counts, b.confusion.counts)

    def test_unusable_points_dropped_with_count(self, tmp_path):
        rng = np.random.default_rng(3)
        dates = [datetime.date(2013, 5, 1) + datetime.timedelta(days=15 * i) for i in range(4)]
        n = 6
        scenes = []
        for i, date in enumerate(dates):
            qa = np.zeros((n, n))
            qa[0, 0] = 1.0  # one cell cloudy in every scene
            bands = {
                b: np.clip(rng.uniform(0.2, 0.5) + rng.normal(0, 0.01, (n, n)), 0, 1)
                for b in BAND_NAMES
            }
            bands["SWIR2"][n // 2 :] += 0.3
            scenes.append(write_scene(tmp_path / f"q{i}", date, bands, qa))
        truth_values = np.zeros((n, n))
        truth_values[n // 2 :] = 1.0
        truth = make_grid(truth_values, cellsize=0.001)
        points = sample_class_points(truth, 0, 15, seed=1)
        points += sample_class_points(truth, 1, 15, seed=2)
        # exactly one reference point sits on the always-cloudy cell (0, 0)
        from dataclasses import replace

        points = [p for p in points if truth.cell_index(p.location) != (0, 0)]
        points.append(replace(points[0], location=truth.cell_center(0, 0)))
        stack = SceneStack.from_manifests(scenes, [FeatureName.SWIR2])
        result = train_pixel_classifier(points, stack, TWO_CLASS, FAST_CFG)
        assert result.dropped_unusable == 1


def test_a_built_stack_reads_no_grid(tmp_path, monkeypatch):
    """Every call that reads a built stack returns the same with grid reads
    failing, the map at 2 and 3 workers included."""
    stack, truth = planted_scenes(tmp_path, [FeatureName.Red, FeatureName.SWIR2])
    points = planted_points(truth)
    extent = BoundingBox(0.0, 8 * 0.001, 0.0, 8 * 0.001)

    def results():
        out = [*stack.fill_cells(slice(None), slice(None)), *stack.stack_at_cell(3, 4)]
        out.append(forward_select(points, stack, TWO_CLASS, FAST_CFG))
        trained = train_pixel_classifier(points, stack, TWO_CLASS, FAST_CFG)
        out += [trained.history, trained.confusion.counts]
        for cpus in (2, 3):
            force_workers(monkeypatch, cpus)
            crop_map = predict_crop_map(trained.net, stack, extent, TWO_CLASS, batch_size=16)
            out.append(crop_map.grid.values)
        return out

    expected = results()

    def no_read(*args, **kwargs):
        raise AssertionError("a built stack read a grid")

    monkeypatch.setattr(rasterstack, "read_grid", no_read)
    np.testing.assert_equal(results(), expected)


@pytest.fixture(scope="module")
def il_pipeline(il_world, il_scenes):
    """Shared refpoints + trained pixel model on the session world."""
    kept = kept_images_from_world(il_world, stride=3)
    points = generate_reference_points(kept, world_shift_params(il_world)).points
    points += sample_class_points(il_world.truth, ILLINOIS.others_index, 120, seed=5)
    features = [FeatureName.EVI, FeatureName.ENDVI, FeatureName.SWIR1, FeatureName.SWIR2]
    stack = SceneStack.from_manifests(il_scenes, features)
    result = train_pixel_classifier(points, stack, ILLINOIS, nn.TrainConfig(epochs=10, seed=4))
    return il_world, stack, points, result


class TestPredictCropMap:
    def test_map_matches_truth_on_synthetic_world(self, il_pipeline):
        world, stack, _, result = il_pipeline
        crop_map = predict_crop_map(result.net, stack, world.cfg.extent, ILLINOIS)
        ev = evaluate_crop_map(crop_map, world.truth)
        assert overall_accuracy(ev.confusion) >= 0.9

    def test_prediction_independent_of_visit_order(self, il_pipeline):
        world, stack, _, result = il_pipeline
        a = predict_crop_map(result.net, stack, world.cfg.extent, ILLINOIS)
        b = predict_crop_map(result.net, stack, world.cfg.extent, ILLINOIS)
        np.testing.assert_array_equal(a.grid.values, b.grid.values)

    def test_map_restricted_to_refpoints_reproduces_heldout_predictions(self, il_pipeline):
        world, stack, points, result = il_pipeline
        crop_map = predict_crop_map(result.net, stack, world.cfg.extent, ILLINOIS)
        x, labels = [], []
        for pt in points[:50]:
            row, col = stack.template.cell_index(pt.location)
            matrix, _ = stack.stack_at_cell(row, col)
            x.append(matrix[None])
            labels.append((row, col))
        pred, _ = nn.predict_batch(result.net, np.stack(x))
        for (row, col), label in zip(labels, pred):
            assert crop_map.grid.values[row, col] == float(label)

    def test_row_blocks_do_not_change_the_map(self, il_pipeline):
        world, stack, _, result = il_pipeline
        whole = predict_crop_map(result.net, stack, world.cfg.extent, ILLINOIS)
        blocks = predict_crop_map(result.net, stack, world.cfg.extent, ILLINOIS, batch_size=7)
        np.testing.assert_array_equal(blocks.grid.values, whole.grid.values)

    @pytest.mark.parametrize("batch_size", [1024, 7])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_worker_count_does_not_change_the_map(
        self, il_pipeline, monkeypatch, cpus, batch_size
    ):
        world, stack, _, result = il_pipeline
        args = (result.net, stack, world.cfg.extent, ILLINOIS, batch_size)
        force_workers(monkeypatch, 1)
        serial = predict_crop_map(*args)
        force_workers(monkeypatch, cpus)
        spread = predict_crop_map(*args)
        assert_no_child_left()
        np.testing.assert_array_equal(spread.grid.values, serial.grid.values)

    def test_feature_mismatch_rejected(self, il_pipeline, il_scenes):
        world, _, _, result = il_pipeline
        stack = SceneStack.from_manifests(il_scenes, [FeatureName.NDVI])
        with pytest.raises(DataValidationError):
            predict_crop_map(result.net, stack, world.cfg.extent, ILLINOIS)

    def test_uniform_world_maps_uniformly_inside_parcels(self, tmp_path):
        import streetcrop.synthworld as sw
        from conftest import world_shift_params as wsp

        cfg = sw.WorldConfig(ILLINOIS, parcels_per_side=5, proportions=(1.0, 0.0, 0.0), seed=9)
        world = sw.generate_world(cfg)
        scenes = sw.synthesize_scenes(world, tmp_path / "scenes")
        kept = kept_images_from_world(world, stride=3)
        points = generate_reference_points(kept, wsp(world)).points
        points += sample_class_points(world.truth, ILLINOIS.others_index, 60, seed=9)
        points += sample_class_points(world.truth, ILLINOIS.index("corn"), 5, seed=10)
        # soybean never occurs in this world; pad it so training is legal
        soy = sample_class_points(world.truth, ILLINOIS.others_index, 5, seed=11)
        from dataclasses import replace

        points += [replace(p, label=ILLINOIS.index("soybean")) for p in soy]
        features = [FeatureName.EVI, FeatureName.SWIR2]
        stack = SceneStack.from_manifests(scenes, features)
        result = train_pixel_classifier(points, stack, ILLINOIS, FAST_CFG)
        crop_map = predict_crop_map(result.net, stack, cfg.extent, ILLINOIS)
        parcel_cells = world.road_mask.values == 0
        mapped = crop_map.grid.values[parcel_cells]
        corn = ILLINOIS.index("corn")
        assert (mapped == corn).mean() >= 0.99

    def test_fully_masked_pixel_is_nodata(self, tmp_path):
        dates = [datetime.date(2013, 5, 1) + datetime.timedelta(days=15 * i) for i in range(3)]
        n = 4
        rng = np.random.default_rng(1)
        scenes = []
        for i, date in enumerate(dates):
            qa = np.zeros((n, n))
            qa[1, 1] = 1.0
            bands = {
                b: np.clip(rng.uniform(0.2, 0.5) + rng.normal(0, 0.01, (n, n)), 0, 1)
                for b in BAND_NAMES
            }
            bands["SWIR2"][n // 2 :] += 0.3
            scenes.append(write_scene(tmp_path / f"m{i}", date, bands, qa))
        truth_values = np.zeros((n, n))
        truth_values[n // 2 :] = 1.0
        truth = make_grid(truth_values, cellsize=0.001)
        points = sample_class_points(truth, 0, 6, seed=1)
        points += sample_class_points(truth, 1, 6, seed=2)
        points = [p for p in points if truth.cell_index(p.location) != (1, 1)]
        cfg = nn.TrainConfig(epochs=5, seed=0)
        stack = SceneStack.from_manifests(scenes, [FeatureName.SWIR2])
        result = train_pixel_classifier(points, stack, TWO_CLASS, cfg)
        extent = BoundingBox(0.0, n * 0.001, 0.0, n * 0.001)
        crop_map = predict_crop_map(result.net, stack, extent, TWO_CLASS)
        assert crop_map.grid.values[1, 1] == crop_map.grid.nodata
        assert (crop_map.grid.values != crop_map.grid.nodata).sum() == n * n - 1


    def test_nodata_in_unused_band_does_not_mask_pixel(self, tmp_path):
        dates = [datetime.date(2013, 5, 1) + datetime.timedelta(days=15 * i) for i in range(3)]
        n = 4
        rng = np.random.default_rng(2)
        scenes = []
        for i, date in enumerate(dates):
            bands = {
                b: np.clip(rng.uniform(0.2, 0.5) + rng.normal(0, 0.01, (n, n)), 0, 1)
                for b in BAND_NAMES
            }
            bands["SWIR2"][n // 2 :] += 0.3
            bands["Blue"][1, 1] = -9999.0  # Blue feeds no selected feature
            bands["SWIR2"][2, 2] = -9999.0
            scenes.append(write_scene(tmp_path / f"m{i}", date, bands, np.zeros((n, n))))
        truth_values = np.zeros((n, n))
        truth_values[n // 2 :] = 1.0
        truth = make_grid(truth_values, cellsize=0.001)
        points = sample_class_points(truth, 0, 6, seed=1)
        points += sample_class_points(truth, 1, 6, seed=2)
        points = [p for p in points if truth.cell_index(p.location) != (2, 2)]
        cfg = nn.TrainConfig(epochs=5, seed=0)
        stack = SceneStack.from_manifests(scenes, [FeatureName.SWIR2])
        result = train_pixel_classifier(points, stack, TWO_CLASS, cfg)
        extent = BoundingBox(0.0, n * 0.001, 0.0, n * 0.001)
        crop_map = predict_crop_map(result.net, stack, extent, TWO_CLASS)
        assert crop_map.grid.values[1, 1] != crop_map.grid.nodata
        assert crop_map.grid.values[2, 2] == crop_map.grid.nodata
        assert (crop_map.grid.values != crop_map.grid.nodata).sum() == n * n - 1


class TestEvaluate:
    def test_identity_map_scores_one(self):
        values = np.tile(np.array([[0.0, 1.0]]), (4, 2))
        grid = make_grid(values, cellsize=0.001)
        crop_map = CropMap(grid, TWO_CLASS)
        ev = evaluate_crop_map(crop_map, make_grid(values.copy(), cellsize=0.001))
        assert overall_accuracy(ev.confusion) == 1.0
        assert ev.map_area_counts == ev.truth_area_counts

    def test_georeference_mismatch(self):
        grid = make_grid(np.zeros((2, 2)), cellsize=0.001)
        other = make_grid(np.zeros((2, 2)), cellsize=0.002)
        with pytest.raises(GeoreferenceMismatchError):
            evaluate_crop_map(CropMap(grid, TWO_CLASS), other)


class TestCropMapIO:
    def test_round_trip_with_legend(self, tmp_path):
        grid = make_grid(np.array([[0.0, 1.0], [2.0, -9999.0]]), cellsize=0.001)
        crop_map = CropMap(grid, ILLINOIS)
        path = tmp_path / "map.grid"
        legend = write_crop_map(crop_map, path)
        assert legend.exists()
        back = read_crop_map(path, ILLINOIS)
        np.testing.assert_array_equal(back.grid.values, grid.values)
        assert back.taxonomy == ILLINOIS

    def test_legend_mismatch_rejected(self, tmp_path):
        grid = make_grid(np.zeros((1, 1)), cellsize=0.001)
        path = tmp_path / "map.grid"
        write_crop_map(CropMap(grid, ILLINOIS), path)
        with pytest.raises(DataValidationError):
            read_crop_map(path, TWO_CLASS)

    @pytest.mark.parametrize("line", ["corn", "x=corn", "1=corn"])
    def test_malformed_legend_line_rejected(self, tmp_path, line):
        grid = make_grid(np.zeros((1, 1)), cellsize=0.001)
        path = tmp_path / "map.grid"
        legend = write_crop_map(CropMap(grid, ILLINOIS), path)
        legend.write_text(legend.read_text().replace("0=corn", line))
        with pytest.raises(DataValidationError, match="legend:1"):
            read_crop_map(path, ILLINOIS)
