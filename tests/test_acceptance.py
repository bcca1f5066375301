"""Acceptance criteria, one test per criterion.

Criteria 1-6 are exact or property-based; 7-9 run the synthetic
end-to-end analogues of the published campaign numbers. Each test
prints a PASS line with its runtime (visible with ``pytest -s`` or in
captured output on failure).
"""

import time

import numpy as np
import pytest

from conftest import kept_images_from_world, world_shift_params
from streetcrop import cropmapper, neuralnet as nn, refgen, synthworld as sw
from streetcrop.cli import run_command
from streetcrop.geocore import (
    GeoPoint,
    Heading,
    ShiftParams,
    geo_distance,
    offset_point,
    shift_to_parcel,
)
from streetcrop.imageclassifier import (
    CALIFORNIA,
    ILLINOIS,
    images_to_arrays,
    read_catalog,
    split_dataset,
    train_image_classifier,
)
from streetcrop.metrics import (
    AgreementReport,
    ConfusionMatrix,
    overall_accuracy,
    percent,
    producer_accuracy,
    user_accuracy,
)
from streetcrop.rasterstack import FeatureName, RasterGrid, SceneStack, compute_index
from test_metrics import CA_CLASSES, CA_COUNTS, IL_CLASSES, IL_COUNTS


class _Timer:
    def __init__(self, limit_s, label):
        self.limit = limit_s
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *args):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.limit, f"{self.label}: {elapsed:.1f}s over {self.limit}s budget"
            print(f"PASS {self.label} ({elapsed:.1f}s)")
        else:
            print(f"FAIL {self.label} ({elapsed:.1f}s)")


def test_criterion_1_metric_reproduction():
    with _Timer(1.0, "criterion 1: published confusion matrices reproduce PA/UA/OA"):
        il = ConfusionMatrix(IL_CLASSES, IL_COUNTS)
        assert producer_accuracy(il, "corn") == 118 / 119
        assert user_accuracy(il, "corn") == 118 / 126
        assert round(overall_accuracy(il), 2) == 0.97
        il_published_pa = {"corn": 0.99, "others": 0.95, "soybean": 0.96}
        il_published_ua = {"corn": 0.94, "others": 1.00, "soybean": 0.96}
        for name in IL_CLASSES:
            assert round(producer_accuracy(il, name), 2) == il_published_pa[name]
            assert round(user_accuracy(il, name), 2) == il_published_ua[name]

        ca = ConfusionMatrix(CA_CLASSES, CA_COUNTS)
        assert round(overall_accuracy(ca), 2) == 0.93
        # Published two-decimal values. The source table misprints two
        # entries relative to its own counts (alfalfa UA 174/188 = 0.93
        # printed as 0.94, grape PA 118/124 = 0.95 printed as 0.94);
        # the matrix-derived values are asserted here.
        ca_published_pa = {
            "alfalfa": 0.99, "almond": 0.91, "corn": 0.94, "cotton": 0.80,
            "grape": round(118 / 124, 2), "others": 0.99, "pistachio": 0.96,
        }
        ca_published_ua = {
            "alfalfa": round(174 / 188, 2), "almond": 0.96, "corn": 0.84,
            "cotton": 1.00, "grape": 0.97, "others": 0.99, "pistachio": 0.86,
        }
        for name in CA_CLASSES:
            assert round(producer_accuracy(ca, name), 2) == ca_published_pa[name]
            assert round(user_accuracy(ca, name), 2) == ca_published_ua[name]


def test_criterion_2_agreement_reproduction():
    with _Timer(1.0, "criterion 2: published agreement counts round to published percents"):
        counts = {
            "alfalfa": (1077, 1120, 96),
            "almond": (1943, 1984, 98),
            "corn": (1002, 1115, 90),
            "cotton": (980, 1001, 98),
            "grape": (173, 195, 89),
            "pistachio": (955, 994, 96),
        }
        names = tuple(counts)
        report = AgreementReport(
            names,
            tuple(counts[n][0] for n in names),
            tuple(counts[n][1] for n in names),
        )
        for name, (_, _, expected_pct) in counts.items():
            assert percent(report.fraction(name)) == expected_pct


def test_criterion_3_vi_oracle_equivalence():
    with _Timer(1.0, "criterion 3: index equations match scalar oracle to 1e-12"):
        from test_rasterstack import oracle_index

        rng = np.random.default_rng(2024)
        tuples = rng.uniform(0.0, 1.0, size=(1000, 5))
        n = len(tuples)

        def grid(col):
            return RasterGrid(n, 1, 0.0, 0.0, 0.001, -9999.0, col.reshape(1, n))

        nir, red, blue, green, swir1 = (grid(tuples[:, i]) for i in range(5))
        bands = {"NIR": nir, "Red": red, "Blue": blue, "Green": green, "SWIR1": swir1}
        for kind in (FeatureName.NDVI, FeatureName.EVI, FeatureName.ENDVI, FeatureName.LSWI):
            out = compute_index(kind, bands).values[0]
            for i in range(n):
                expected = oracle_index(
                    kind.value,
                    nir=tuples[i, 0], red=tuples[i, 1], blue=tuples[i, 2],
                    green=tuples[i, 3], swir1=tuples[i, 4],
                )
                if out[i] == -9999.0:
                    assert abs(
                        {"NDVI": tuples[i, 0] + tuples[i, 1],
                         "EVI": tuples[i, 0] + 6 * tuples[i, 1] - 7 * tuples[i, 2] + 1,
                         "ENDVI": tuples[i, 0] + tuples[i, 3] + 2 * tuples[i, 2],
                         "LSWI": tuples[i, 0] + tuples[i, 4]}[kind.value]
                    ) < 1e-12
                    continue
                assert abs(out[i] - expected) < 1e-12
                if kind in (FeatureName.NDVI, FeatureName.ENDVI, FeatureName.LSWI):
                    assert -1.0 <= out[i] <= 1.0


def _mini_image_composition(k=3):
    """The default image architecture's layer sequence at reduced width."""
    return nn.NetworkSpec(
        (
            nn.Conv2D(4, 3, 3), nn.ReLU(), nn.MaxPool(2),
            nn.Conv2D(6, 3, 3), nn.ReLU(), nn.MaxPool(2),
            nn.Conv2D(8, 3, 3), nn.ReLU(), nn.MaxPool(2),
            nn.Dropout(0.2), nn.Dense(16), nn.ReLU(), nn.Dense(k), nn.Softmax(),
        ),
        (3, 24, 24),
        k,
    )


def _mini_pixel_composition(k=3):
    """The default pixel architecture's layer sequence at reduced width."""
    return nn.NetworkSpec(
        (
            nn.Conv2D(6, 3, 3, same_padding=True), nn.ReLU(),
            nn.Conv2D(6, 3, 3, same_padding=True), nn.ReLU(),
            nn.Dropout(0.2), nn.Dense(16), nn.ReLU(), nn.Dense(k), nn.Softmax(),
        ),
        (1, 10, 4),
        k,
    )


def test_criterion_4_gradient_correctness():
    with _Timer(120.0, "criterion 4: backprop matches finite differences across 10 seeds"):
        for spec in (_mini_image_composition(), _mini_pixel_composition()):
            for seed in range(10):
                net = nn.build_network(spec, seed=seed)
                rng = np.random.default_rng(100 + seed)
                x = rng.normal(size=spec.input_shape)
                label = int(rng.integers(spec.n_classes))
                err = nn.gradient_check(net, (x, label), eps=1e-5)
                assert err < 1e-4, f"{spec.input_shape} seed {seed}: {err}"


def test_criterion_5_geometry():
    with _Timer(5.0, "criterion 5: offset/distance round trips and shift arithmetic"):
        rng = np.random.default_rng(7)
        for _ in range(500):
            p = GeoPoint(rng.uniform(-70, 70), rng.uniform(-179, 179))
            h = list(Heading)[rng.integers(4)]
            d = rng.uniform(0.001, 1000.0)
            q = offset_point(p, h, d)
            assert abs(geo_distance(p, q) - d) <= 1e-6 * d
        for _ in range(200):
            y = rng.uniform(0, 40)
            x = rng.uniform(1, 60)
            steps = int(rng.integers(0, 4))
            p = GeoPoint(rng.uniform(-60, 60), rng.uniform(-179, 179))
            h = list(Heading)[rng.integers(4)]
            q = shift_to_parcel(p, h, ShiftParams(y, x, steps))
            assert abs(geo_distance(p, q) - (0.5 * y + x * (1 + steps))) < 1e-2


DETERMINISM_CONFIG = """\
region = illinois
seed = 13
synth.parcels_per_side = 4
synth.n_per_class = 8
synth.fixture_stride = 3
synth.cloud_fraction = 0.05
grid.spacing_m = 30
shift.road_width_y_m = 30
shift.pixel_size_x_m = 30
net.epochs = 6
qc.min_confidence = 0.4
refs.others_count = 40
features.candidates = SWIR2,Red
"""

ALL_COMMANDS = (
    "synth", "grid", "fetch", "train-images", "classify-images", "qc",
    "make-refs", "validate-refs", "select-features", "train-mapper",
    "map", "evaluate",
)


def _tree_bytes(root):
    return {
        p.relative_to(root): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_6_cli_determinism(tmp_path):
    with _Timer(300.0, "criterion 6: every CLI command reruns byte-identically"):
        config = tmp_path / "run.cfg"
        config.write_text(DETERMINISM_CONFIG)
        out = tmp_path / "run"
        for command in ALL_COMMANDS:
            assert run_command([command, "--config", str(config), "--out", str(out)]) == 0, command
        snapshot = _tree_bytes(out)
        for command in ALL_COMMANDS:
            assert run_command([command, "--config", str(config), "--out", str(out)]) == 0, command
        rerun = _tree_bytes(out)
        assert snapshot.keys() == rerun.keys()
        for name in snapshot:
            assert snapshot[name] == rerun[name], f"{name} differs between reruns"


def test_criterion_7_synthetic_image_classification(tmp_path):
    with _Timer(600.0, "criterion 7: 7-class street-image test accuracy >= 0.90"):
        cfg = sw.WorldConfig(CALIFORNIA, parcels_per_side=22, seed=21)
        world = sw.generate_world(cfg)
        catalog = sw.build_training_catalog(world, tmp_path, n_per_class=220)
        labeled = read_catalog(catalog, CALIFORNIA)
        assert len(labeled) == 220 * 7
        train_set, val_set, test_set = split_dataset(labeled, (0.6, 0.2, 0.2), seed=21)
        net, _ = train_image_classifier(
            train_set, val_set, CALIFORNIA, cfg=nn.TrainConfig(epochs=30, seed=21)
        )
        x_test, y_test = images_to_arrays(test_set)
        oa = nn.accuracy(net, x_test, y_test)
        print(f"  held-out image OA = {oa:.4f} on {len(test_set)} images")
        assert oa >= 0.90


@pytest.fixture(scope="module")
def mapping_world(tmp_path_factory):
    """IL world for criteria 8 and 9: parcels 240 m, shift 45 m."""
    cfg = sw.WorldConfig(ILLINOIS, parcels_per_side=10, cloud_fraction=0.1, seed=31)
    world = sw.generate_world(cfg)
    scenes = sw.synthesize_scenes(world, tmp_path_factory.mktemp("acc_scenes"))
    kept = kept_images_from_world(world, stride=2)
    points = refgen.generate_reference_points(kept, world_shift_params(world)).points
    return world, scenes, points


def test_criterion_8_synthetic_referencing(mapping_world):
    with _Timer(60.0, "criterion 8: reference points agree with truth >= 0.94 per class"):
        world, _, points = mapping_world
        shift = world_shift_params(world).shift_m
        parcel_m = world.cfg.parcel_cells * sw.CELL_M
        assert parcel_m >= 3 * shift
        report, _ = refgen.validate_reference_points(points, world.truth, ILLINOIS)
        for name in report.class_names:
            frac = report.fraction(name)
            print(f"  {name}: agreement {frac:.4f}")
            assert frac >= 0.94


END_TO_END_CONFIG = """\
region = illinois
seed = 31
synth.parcels_per_side = 10
synth.n_per_class = 100
synth.fixture_stride = 2
synth.cloud_fraction = 0.1
grid.spacing_m = 30
shift.road_width_y_m = 30
shift.pixel_size_x_m = 30
qc.min_confidence = 0.5
refs.others_count = 200
"""


def test_criterion_9_synthetic_mapping_and_selection(mapping_world, tmp_path):
    with _Timer(1200.0, "criterion 9: forward selection + end-to-end synthetic map"):
        world, scenes, points = mapping_world
        points = points + refgen.sample_class_points(
            world.truth, ILLINOIS.others_index, 200, seed=31
        )
        stack = SceneStack.from_manifests(scenes, list(FeatureName))
        cfg = nn.TrainConfig(epochs=20, seed=31)

        # greedy selection over all ten candidates
        result = cropmapper.forward_select(points, stack, ILLINOIS, cfg)
        k = len(FeatureName)
        assert result.models_trained <= k * (k + 1) // 2
        hist = result.incumbent_history
        assert len(hist) >= 1
        assert all(b > a for a, b in zip(hist, hist[1:]))
        print(f"  selection: {[f.value for f in result.selected]}, "
              f"{result.models_trained} models, incumbents {[round(h, 3) for h in hist]}")

        # planted informative-vs-noise: only SWIR2 carries class signal,
        # and Red would win ties, so SWIR2 must be chosen on merit
        from test_cropmapper import TWO_CLASS, planted_points, planted_scenes

        p_scenes, p_truth = planted_scenes(
            tmp_path / "planted", [FeatureName.Red, FeatureName.SWIR2], informative="SWIR2"
        )
        planted = cropmapper.forward_select(
            planted_points(p_truth),
            p_scenes,
            TWO_CLASS,
            nn.TrainConfig(epochs=20, seed=0),
        )
        assert planted.selected[0] == FeatureName.SWIR2
        assert FeatureName.Red not in planted.selected

        # end-to-end through the CLI, image classifier in the loop
        config = tmp_path / "e2e.cfg"
        config.write_text(END_TO_END_CONFIG)
        out = tmp_path / "e2e"
        for command in ALL_COMMANDS:
            code = run_command([command, "--config", str(config), "--out", str(out)])
            assert code == 0, f"{command} exited {code}"

        oa_line = [
            line for line in (out / "map_confusion.csv").read_text().splitlines()
            if line.startswith("OA,")
        ][0]
        oa = float(oa_line.split(",")[1])
        print(f"  end-to-end map OA = {oa:.4f}")
        assert oa >= 0.90

        area_lines = (out / "area_counts.csv").read_text().splitlines()[1:]
        for line in area_lines:
            name, map_count, truth_count = line.split(",")
            rel = abs(int(map_count) - int(truth_count)) / int(truth_count)
            print(f"  area {name}: map {map_count} vs truth {truth_count} ({rel:.3%})")
            assert rel <= 0.10
