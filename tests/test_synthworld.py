import collections
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from streetcrop import synthworld as sw
from streetcrop.errors import DataValidationError
from streetcrop.geocore import Heading
from streetcrop.imageclassifier import CALIFORNIA, ILLINOIS
from streetcrop.imagery import FixtureIndex, encode_image
from streetcrop.rasterstack import (
    BAND_NAMES,
    FeatureName,
    RasterGrid,
    SceneStack,
    read_grid,
    read_manifest,
)


def phenology_separation(classes, dates):
    """Worst-case class-pair separation: min over pairs of the largest
    per-band per-date reflectance difference."""
    doys = [d.timetuple().tm_yday for d in dates]
    worst = np.inf
    for i, a in enumerate(classes):
        for b in classes[i + 1 :]:
            best = 0.0
            for band in BAND_NAMES:
                diff = np.abs(sw.phenology_value(a, band, doys) - sw.phenology_value(b, band, doys))
                best = max(best, float(diff.max()))
            worst = min(worst, best)
    return worst


def small_world(taxonomy=ILLINOIS, **kwargs):
    defaults = dict(parcels_per_side=5, seed=3)
    defaults.update(kwargs)
    return sw.generate_world(sw.WorldConfig(taxonomy, **defaults))


class TestGenerateWorld:
    def test_same_seed_identical(self):
        a = small_world()
        b = small_world()
        np.testing.assert_array_equal(a.truth.values, b.truth.values)
        np.testing.assert_array_equal(a.parcel_classes, b.parcel_classes)

    def test_different_seed_differs(self):
        a = small_world(seed=1)
        b = small_world(seed=2)
        assert (a.parcel_classes != b.parcel_classes).any()

    def test_two_class_split_of_100_parcels(self):
        world = small_world(parcels_per_side=10, proportions=(0.5, 0.5, 0.0))
        counts = collections.Counter(world.parcel_classes.ravel().tolist())
        assert abs(counts[ILLINOIS.index("corn")] - 50) <= 2
        assert abs(counts[ILLINOIS.index("soybean")] - 50) <= 2

    def test_roads_carry_others_class(self):
        world = small_world()
        road = world.road_mask.values == 1
        assert (world.truth.values[road] == ILLINOIS.others_index).all()

    def test_georeferencing_shared(self):
        world = small_world()
        assert world.truth.same_georef(world.road_mask)

    def test_tiny_parcels_rejected(self):
        with pytest.raises(DataValidationError):
            sw.WorldConfig(ILLINOIS, parcels_per_side=3, parcel_cells=1)

    def test_proportions_must_sum_to_one(self):
        with pytest.raises(DataValidationError):
            sw.WorldConfig(ILLINOIS, proportions=(0.6, 0.0, 0.6))


class TestPhenology:
    def test_values_in_unit_interval(self):
        doys = np.arange(1, 366)
        for cls, bands in sw.DEFAULT_PHENOLOGY.items():
            for band in BAND_NAMES:
                values = sw.phenology_value(cls, band, doys)
                assert values.min() >= 0.0 and values.max() <= 1.0

    def test_default_classes_separate_by_five_sigma(self):
        classes = list(sw.DEFAULT_PHENOLOGY)
        sep = phenology_separation(classes, sw.SCENE_DATES)
        assert sep >= 5 * 0.01


def stored(reflectance):
    """A reflectance as a scene stack reads it back: rounded to the stored step."""
    return np.rint(reflectance / sw.REFLECTANCE_SCALE) * sw.REFLECTANCE_SCALE


class TestScenes:
    def test_noiseless_scenes_match_curves_exactly(self, tmp_path):
        """Exactly, at the stored step: half a step off the curve at most."""
        world = small_world(noise_sigma=0.0, cloud_fraction=0.0)
        manifests = sw.synthesize_scenes(world, tmp_path / "scenes")
        stack = SceneStack.from_manifests(manifests, [FeatureName.NIR])
        doy = manifests[0].scene_date.timetuple().tm_yday
        corn_cells = world.truth.values == ILLINOIS.index("corn")
        nir = stack.feature_plane(FeatureName.NIR)[0][0][corn_cells]
        curve = sw.phenology_value("corn", "NIR", doy)
        np.testing.assert_array_equal(nir, stored(curve))
        assert np.abs(nir - curve).max() <= 0.5 * sw.REFLECTANCE_SCALE + 1e-15

    def test_noiseless_ndvi_matches_analytic(self, tmp_path):
        world = small_world(noise_sigma=0.0, cloud_fraction=0.0)
        manifests = sw.synthesize_scenes(world, tmp_path / "scenes")
        stack = SceneStack.from_manifests(manifests, [FeatureName.NDVI])
        values, valid = stack.feature_plane(FeatureName.NDVI)
        assert valid.all()
        doy = manifests[2].scene_date.timetuple().tm_yday
        corn_cells = world.truth.values == ILLINOIS.index("corn")
        nir = stored(sw.phenology_value("corn", "NIR", doy))
        red = stored(sw.phenology_value("corn", "Red", doy))
        np.testing.assert_allclose(values[2][corn_cells], (nir - red) / (nir + red))

    def test_cloud_fraction_matches_qa_rate(self, tmp_path):
        world = small_world(cloud_fraction=0.2)
        manifests = sw.synthesize_scenes(world, tmp_path / "scenes")
        stack = SceneStack.from_manifests(manifests, [FeatureName.NIR])
        # no synthetic band is nodata, so NIR is observed exactly where QA is clear
        masked = 1.0 - stack.feature_plane(FeatureName.NIR)[1].mean()
        assert abs(masked - 0.2) < 0.02

    def test_band_values_clipped_to_unit_interval(self, tmp_path):
        world = small_world(noise_sigma=0.3)
        manifests = sw.synthesize_scenes(world, tmp_path / "scenes")
        stack = SceneStack.from_manifests(manifests, [FeatureName(b) for b in BAND_NAMES])
        for band in BAND_NAMES:
            values, _ = stack.feature_plane(FeatureName(band))
            assert values.min() >= 0.0
            assert values.max() <= 1.0

    def test_band_grids_hold_integers_at_the_manifest_scale(self, tmp_path):
        world = small_world(noise_sigma=0.3)
        sw.synthesize_scenes(world, tmp_path / "scenes")
        for path in sorted((tmp_path / "scenes").glob("*.manifest")):
            manifest = read_manifest(path)
            assert manifest.scale == sw.REFLECTANCE_SCALE == 0.0001
            for band in BAND_NAMES:
                values = read_grid(manifest.band_paths[band]).values
                assert (values == np.rint(values)).all()
                assert 0 <= values.min() and values.max() <= 10_000
            qa = read_grid(manifest.qa_path).values
            assert set(np.unique(qa)) <= {0.0, 1.0}

    def test_same_seed_identical_scene_files(self, tmp_path):
        world = small_world()
        sw.synthesize_scenes(world, tmp_path / "a")
        sw.synthesize_scenes(world, tmp_path / "b")
        for pa in sorted((tmp_path / "a").iterdir()):
            pb = tmp_path / "b" / pa.name
            assert pa.read_bytes() == pb.read_bytes()


class TestRenderStreetImage:
    def camera(self, world, k=10):
        r, c = world.road_cell_centers()[k]
        return world.truth.cell_center(r, c)

    def test_deterministic(self):
        world = small_world()
        p = self.camera(world)
        a = sw.render_street_image(world, p, Heading.EAST, seed=5)
        b = sw.render_street_image(world, p, Heading.EAST, seed=5)
        assert a.dtype == np.uint8 and a.shape == (sw.IMAGE_PX, sw.IMAGE_PX, 3)
        np.testing.assert_array_equal(a, b)

    def test_encoded_views_are_pinned(self):
        """The PPM bytes of one camera's four views, as the renderer has
        always quantized them: a change to the rendering or to its 1/255
        rounding changes every fixture and training image, and fails here."""
        world = small_world()
        p = self.camera(world, k=95)  # facing soybean, others, corn, others
        digest = hashlib.sha256()
        for h in Heading:
            digest.update(encode_image(sw.render_street_image(world, p, h, seed=5)))
        assert digest.hexdigest() == (
            "9a7888b3c9ef7ef832098c7a4334b4a65d98b3902785694919588a86361c52ce"
        )

    def test_off_road_camera_rejected(self):
        world = small_world()
        parcel_cells = np.argwhere(world.road_mask.values == 0)
        r, c = parcel_cells[0]
        with pytest.raises(DataValidationError):
            sw.render_street_image(world, world.truth.cell_center(int(r), int(c)), Heading.EAST)

    def test_texture_tracks_facing_class_color(self):
        world = small_world(taxonomy=CALIFORNIA)
        # find a camera/heading pair facing a crop parcel
        for r, c in world.road_cell_centers():
            p = world.truth.cell_center(r, c)
            for h in Heading:
                cls = sw.facing_class(world, p, h)
                if cls != CALIFORNIA.others_index:
                    img = sw.render_street_image(world, p, h, seed=1)
                    base, _, _ = sw.TEXTURES[CALIFORNIA.class_names[cls]]
                    sky = int(sw.SKY_FRACTION * len(img))
                    field_mean = (img[sky:] / 255.0).mean(axis=(0, 1))
                    np.testing.assert_allclose(field_mean, base, atol=0.1)
                    return
        raise AssertionError("no crop-facing camera found")

    def test_along_road_view_falls_back_to_others(self):
        world = small_world()
        # a camera on a horizontal road looking along it sees no parcel
        for r, c in world.road_cell_centers():
            p = world.truth.cell_center(r, c)
            facings = {h: sw.facing_class(world, p, h) for h in Heading}
            if all(v == ILLINOIS.others_index for v in facings.values()):
                return  # intersection camera: all four views are road
        raise AssertionError("no intersection camera found")


class TestFacingClass:
    """A camera sees the first non-road cell within ROAD_CELLS + 2 cells."""

    def test_outer_road_camera(self):
        world = small_world()
        last = world.truth.nrows - 1
        # (camera cell, heading out of the world, heading in, first cell inward)
        for (r, c), out, inward, (ar, ac) in [
            ((0, 1), Heading.NORTH, Heading.SOUTH, (1, 1)),
            ((last, 1), Heading.SOUTH, Heading.NORTH, (last - 1, 1)),
            ((1, 0), Heading.WEST, Heading.EAST, (1, 1)),
            ((1, last), Heading.EAST, Heading.WEST, (1, last - 1)),
        ]:
            p = world.truth.cell_center(r, c)
            assert world.road_mask.values[r, c] == 1 and world.road_mask.values[ar, ac] == 0
            assert sw.facing_class(world, p, out) == ILLINOIS.others_index
            assert sw.facing_class(world, p, inward) == world.truth.values[ar, ac]

    def test_reach_and_others_parcels(self):
        # hand-made 2x7 world: row 0 has a three-cell road run before corn,
        # row 1 an "others" parcel cell before soybean
        o, corn, soy = ILLINOIS.others_index, ILLINOIS.index("corn"), ILLINOIS.index("soybean")
        road = [[1, 1, 1, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0]]
        truth = [[o, o, o, o, corn, corn, corn], [o, o, o, soy, soy, soy, soy]]
        grid = lambda values: RasterGrid(7, 2, 0.0, 0.0, sw.CELLSIZE_DEG, sw.NODATA, values)
        world = replace(small_world(), truth=grid(truth), road_mask=grid(road))
        view = lambda r, c: sw.facing_class(world, world.truth.cell_center(r, c), Heading.EAST)
        assert view(0, 1) == corn  # three cells out: the edge of reach
        assert view(0, 0) == o  # four cells out: beyond reach
        assert view(1, 0) == o  # the first non-road cell decides, even for "others"

    def test_intersection_camera_sees_only_road(self):
        world = small_world()
        k = world.cfg.period_cells
        for r, c in [(0, 0), (k, k), (k, 0)]:
            p = world.truth.cell_center(r, c)
            assert all(sw.facing_class(world, p, h) == ILLINOIS.others_index for h in Heading)


class TestCampaign:
    def test_training_catalog_counts(self, tmp_path):
        world = small_world()
        catalog = sw.build_training_catalog(world, tmp_path, n_per_class=5)
        from streetcrop.imageclassifier import read_catalog

        labeled = read_catalog(catalog, ILLINOIS)
        counts = collections.Counter(li.label for li in labeled)
        assert all(counts[i] == 5 for i in range(len(ILLINOIS)))

    def test_training_images_are_fixtures(self, tmp_path):
        """Each catalog image is the fixture its own point and heading resolve to."""
        world = small_world()
        catalog = sw.build_training_catalog(world, tmp_path, n_per_class=5)
        from streetcrop.imageclassifier import read_catalog

        index = FixtureIndex(tmp_path / "images")
        for li in read_catalog(catalog, ILLINOIS):
            k = int(index.resolve([li.record.capture_point], [li.record.heading])[0, 0])
            assert k >= 0, li.record.id
            fixture = index.record(k)
            assert fixture.id == li.record.id
            np.testing.assert_array_equal(fixture.read_pixels(), li.record.read_pixels())

    def test_insufficient_candidates_rejected(self, tmp_path):
        world = small_world()
        with pytest.raises(DataValidationError):
            sw.build_training_catalog(world, tmp_path, n_per_class=10**6)

    @pytest.mark.parametrize("n_per_class", [0, -1])
    def test_non_positive_count_rejected(self, tmp_path, n_per_class):
        with pytest.raises(DataValidationError, match="n_per_class"):
            sw.build_training_catalog(small_world(), tmp_path, n_per_class=n_per_class)

    def test_fixture_stride_thins_cameras(self, tmp_path):
        world = small_world()
        n_all = sw.build_campaign_fixtures(world, tmp_path / "all", stride=1)
        n_half = sw.build_campaign_fixtures(world, tmp_path / "half", stride=2)
        assert n_all == 4 * len(world.road_cell_centers())
        assert abs(n_half - n_all / 2) <= 4
