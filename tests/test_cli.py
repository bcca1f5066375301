import datetime
import hashlib
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from conftest import (
    BYTE_EDITS,
    assert_no_child_left,
    force_workers,
    make_grid,
    mutate_bytes,
    spoiled,
)
from streetcrop import cli, neuralnet, synthworld
from streetcrop.cli import RunConfig, run_command
from streetcrop.errors import UsageError
from streetcrop.geocore import GeoPoint, Heading
from streetcrop.imagery import write_fixture
from streetcrop.rasterstack import write_grid


MINI_CONFIG = """\
region = illinois
seed = 5

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


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    """synth+grid+fetch executed once for the command tests below."""
    base = tmp_path_factory.mktemp("cli")
    config = base / "run.cfg"
    config.write_text(MINI_CONFIG)
    out = base / "run"
    for command in ("synth", "grid", "fetch"):
        assert run_command([command, "--config", str(config), "--out", str(out)]) == 0
    return config, out


class TestConfig:
    def test_parse(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 3\nshift.road_width_y_m = 12.5  # comment\n")
        cfg = RunConfig.load(path)
        assert cfg.seed == 3
        assert cfg.shift_params().road_width_y_m == 12.5

    def test_seed_mandatory(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("region = illinois\n")
        with pytest.raises(UsageError):
            RunConfig.load(path).seed

    def test_seed_override(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 3\n")
        assert RunConfig.load(path, seed=9).seed == 9

    @pytest.mark.parametrize(
        "config,argv,message",
        [
            ("seed = -1\n", [], "config key seed must be a non-negative integer"),
            ("seed = 1\n", ["--seed", "-1"], "argument --seed: must be a non-negative integer"),
        ],
        ids=["config", "flag"],
    )
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, config, argv, message):
        path = tmp_path / "c.cfg"
        path.write_text("region = illinois\n" + config)
        out = tmp_path / "out"
        assert run_command(["synth", "--config", str(path), "--out", str(out)] + argv) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(spoiled("17"))
    def test_seed_flag_takes_ascii_digits_only(self, tmp_path, capsys, seed):
        path = tmp_path / "c.cfg"
        path.write_text("region = illinois\nseed = 1\n")
        out = tmp_path / "out"
        argv = ["synth", "--config", str(path), "--out", str(out), "--seed", seed]
        assert run_command(argv) == 1
        # worded as a config file's "config key seed is not an integer"
        assert f"argument --seed: is not an integer: {seed!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("this is not a key value line\n")
        with pytest.raises(UsageError):
            RunConfig.load(path)

    def test_unknown_region(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 1\nregion = atlantis\n")
        with pytest.raises(UsageError):
            RunConfig.load(path).taxonomy

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 1\npaths.truth = world/truth.grid\n")
        cfg = RunConfig.load(path)
        assert cfg["paths.truth"] == tmp_path / "world" / "truth.grid"


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, mini_run):
        config, out = mini_run
        assert run_command(["frobnicate", "--config", str(config)]) == 1

    def test_missing_config_is_usage_error(self, tmp_path):
        assert run_command(["grid", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_missing_input_is_data_error(self, mini_run, tmp_path):
        config, _ = mini_run
        # empty out dir: validate-refs finds no refs.csv
        code = run_command(["validate-refs", "--config", str(config), "--out", str(tmp_path)])
        assert code == 2

    def test_missing_scene_dir_is_data_error_naming_the_path(self, mini_run, tmp_path, capsys):
        config, _ = mini_run
        refs = tmp_path / "refs.csv"
        refs.write_text(
            "lat,lon,label,source_image,confidence,shift_m,extra_steps\n"
            "0.001,0.001,corn,img_a,,45.0,0\n"
        )
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            config.read_text()
            + f"paths.refs_csv = {refs}\n"
            + "paths.scenes = /nonexistent/scenes\n"
        )
        code = run_command(["select-features", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "/nonexistent/scenes" in capsys.readouterr().err

    def test_malformed_band_grid_is_data_error(self, mini_run, tmp_path, capsys):
        import shutil

        config, out = mini_run
        scenes = tmp_path / "scenes"
        shutil.copytree(out / "world" / "scenes", scenes)
        bad_grid = sorted(scenes.glob("*_SWIR2.grid"))[0]
        lines = bad_grid.read_text().splitlines()
        lines[6] = "x " + lines[6].split(" ", 1)[1]  # first body token
        bad_grid.write_text("\n".join(lines) + "\n")
        refs = tmp_path / "refs.csv"
        refs.write_text(
            "lat,lon,label,source_image,confidence,shift_m,extra_steps\n"
            "0.001,0.001,corn,img_a,,45.0,0\n"
        )
        bad = tmp_path / "bad.cfg"
        bad.write_text(config.read_text() + f"paths.refs_csv = {refs}\npaths.scenes = {scenes}\n")
        code = run_command(["select-features", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert bad_grid.name in capsys.readouterr().err

    def test_corrupt_pixel_model_is_data_error(self, mini_run, tmp_path, capsys):
        config, _ = mini_run
        model = tmp_path / "pixel_model.rtnn"
        model.write_bytes(b"RTNN1\ninput abc\nclasses 7\nlayer softmax\nweights 0\n")
        bad = tmp_path / "bad.cfg"
        bad.write_text(config.read_text() + f"paths.pixel_model = {model}\n")
        code = run_command(["map", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "input abc" in capsys.readouterr().err

    def test_success_is_zero(self, mini_run):
        config, out = mini_run
        assert run_command(["grid", "--config", str(config), "--out", str(out)]) == 0


class TestArtifacts:
    def test_synth_writes_world(self, mini_run):
        _, out = mini_run
        assert (out / "world" / "truth.grid").exists()
        # the road mask stays in memory, and the map's extent is the scenes' grid
        for name in ("roadmask.grid", "roadmask.grid.f8", "extent.txt"):
            assert not (out / "world" / name).exists()
        assert (out / "world" / "training" / "catalog.csv").exists()
        assert list((out / "world" / "scenes").glob("*.manifest"))
        assert list((out / "world" / "fixtures").glob("*.ppm"))

    def test_synth_writes_one_file_per_fixture(self, mini_run):
        _, out = mini_run
        names = os.listdir(out / "world" / "fixtures")
        assert names and all(name.endswith(".ppm") for name in names)
        rows = (out / "campaign.csv").read_text().splitlines()[1:]
        assert {row.rsplit(",", 1)[1] for row in rows} == {f"{synthworld.CAPTURE_DATE:%Y-%m}"}

    def test_manifest_written_per_command(self, mini_run):
        _, out = mini_run
        manifest = (out / "grid.manifest").read_text()
        assert "command=grid" in manifest
        assert "config_sha256=" in manifest
        assert "seed=5" in manifest

    def test_fetch_catalog_references_fixtures(self, mini_run):
        _, out = mini_run
        lines = (out / "campaign.csv").read_text().splitlines()
        assert lines[0] == "id,path,label,confidence,lat,lon,heading,date"
        assert len(lines) > 10

    def test_rerun_is_byte_identical(self, mini_run):
        config, out = mini_run
        before = (out / "grid.csv").read_bytes()
        assert run_command(["grid", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "grid.csv").read_bytes() == before


class TestRepeatedKeys:
    @pytest.mark.parametrize(
        "key,text,lines",
        [
            ("seed", "bbox = 0.0,0.001,0.0,0.001\nseed = 2\n", (2, 4)),
            ("grid.spacing_m", "grid.spacing_m = 30\nbbox = 0.0,0.001,0.0,0.001\n"
             "grid.spacing_m = 50\n", (3, 5)),
        ],
        ids=["seed", "grid.spacing_m"],
    )
    def test_repeated_config_key_is_usage_error(self, tmp_path, capsys, key, text, lines):
        config = _config(tmp_path, text)
        out = tmp_path / "out"
        assert run_command(["grid", "--config", str(config), "--out", str(out)]) == 1
        first, second = lines
        assert f"{config}:{second}: config key {key} already set on line {first}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("key", ["date", "band.NIR"])
    def test_repeated_manifest_key_is_data_error(self, mini_run, tmp_path, capsys, key):
        config, out = mini_run
        scenes = tmp_path / "scenes"
        shutil.copytree(out / "world" / "scenes", scenes)
        manifest = sorted(scenes.glob("*.manifest"))[0]
        lines = manifest.read_text().splitlines()
        first = next(n for n, line in enumerate(lines, start=1) if line.startswith(key + "="))
        manifest.write_text("\n".join(lines + [lines[first - 1]]) + "\n")
        refs = tmp_path / "refs.csv"
        refs.write_text(
            "lat,lon,label,source_image,confidence,shift_m,extra_steps\n"
            "0.001,0.001,corn,img_a,,45.0,0\n"
        )
        bad = tmp_path / "bad.cfg"
        bad.write_text(config.read_text() + f"paths.refs_csv = {refs}\npaths.scenes = {scenes}\n")
        code = run_command(["select-features", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        message = f"{manifest}: line {len(lines) + 1}: {key} already set on line {first}"
        assert message in capsys.readouterr().err


class TestPipelineChain:
    def test_remaining_stages_run_clean(self, mini_run):
        config, out = mini_run
        for command in (
            "train-images", "classify-images", "qc", "make-refs", "validate-refs",
            "select-features", "train-mapper", "map", "evaluate",
        ):
            assert run_command([command, "--config", str(config), "--out", str(out)]) == 0, command
        assert (out / "refs.csv").exists()
        agreement = (out / "refs_agreement.csv").read_text()
        assert agreement.splitlines()[0] == "class,matching,total,fraction"
        assert (out / "crop_map.grid").exists()
        assert (out / "crop_map.grid.legend").exists()
        assert (out / "selection.csv").read_text().startswith("feature\n")
        area = (out / "area_counts.csv").read_text().splitlines()
        assert area[0] == "class,map_pixels,truth_pixels"

    def test_dropout_sweep_writes_grid_report(self, mini_run, tmp_path):
        from streetcrop.imageclassifier import ILLINOIS
        from streetcrop.rasterstack import read_grid
        from streetcrop.refgen import sample_class_points, write_reference_csv

        config, out = mini_run
        truth = read_grid(out / "world" / "truth.grid")
        points = []
        for idx in range(len(ILLINOIS)):
            points += sample_class_points(truth, idx, 20, seed=idx)
        refs = tmp_path / "refs.csv"
        write_reference_csv(points, ILLINOIS, refs)
        sweep_cfg = tmp_path / "sweep.cfg"
        sweep_cfg.write_text(
            config.read_text()
            + f"paths.refs_csv = {refs}\n"
            + f"paths.scenes = {out / 'world' / 'scenes'}\n"
            + "net.dropout_grid = 0.1,0.3\n"
            + "features.selected = SWIR2,EVI\n"
        )
        sweep_out = tmp_path / "sweep"
        code = run_command(
            ["train-mapper", "--config", str(sweep_cfg), "--out", str(sweep_out)]
        )
        assert code == 0
        lines = (sweep_out / "dropout_sweep.csv").read_text().splitlines()
        assert lines[0] == "dropout_rate,val_accuracy"
        assert len(lines) == 3


def _tiny_catalog(tmp_path, **cells):
    """A one-row classified catalog with a real image file; ``cells`` override fields."""
    from streetcrop.imagery import encode_image

    image = tmp_path / "img.ppm"
    image.write_bytes(encode_image(np.zeros((2, 2, 3), dtype=np.uint8)))
    row = {"id": "img", "path": "img.ppm", "label": "corn", "confidence": "0.900000",
           "lat": "0.001", "lon": "0.002", "heading": "90", "date": "2013-07", **cells}
    catalog = tmp_path / "classified.csv"
    catalog.write_text(
        "id,path,label,confidence,lat,lon,heading,date\n" + ",".join(row.values()) + "\n"
    )
    return catalog


def _set(text, line):
    """Config ``text`` with ``line`` in place of any line setting its key:
    a key set twice is a usage error."""
    key = line.split("=", 1)[0].strip()
    kept = [old for old in text.splitlines() if old.split("=", 1)[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"


def _config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text("region = illinois\nseed = 1\n" + text)
    return path


class TestMalformedRows:
    @pytest.mark.parametrize(
        "field,value",
        [("lat", "abc"), ("heading", "45"), ("date", "2013-13"), ("date", "2013"),
         ("confidence", "x"), ("confidence", "1.5")],
    )
    def test_bad_catalog_field_is_data_error(self, tmp_path, capsys, field, value):
        catalog = _tiny_catalog(tmp_path, **{field: value})
        config = _config(tmp_path, f"paths.classified_catalog = {catalog}\n")
        assert run_command(["qc", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert f"{catalog}:2" in capsys.readouterr().err

    def test_short_catalog_row_is_data_error(self, tmp_path, capsys):
        catalog = _tiny_catalog(tmp_path)
        catalog.write_text(catalog.read_text().replace(",2013-07\n", "\n"))
        config = _config(tmp_path, f"paths.classified_catalog = {catalog}\n")
        assert run_command(["qc", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert f"{catalog}:2" in capsys.readouterr().err

    def test_missing_image_file_is_data_error(self, tmp_path, capsys):
        catalog = _tiny_catalog(tmp_path, path="absent.ppm")
        config = _config(tmp_path, f"paths.classified_catalog = {catalog}\n")
        assert run_command(["qc", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert "absent.ppm" in capsys.readouterr().err

    def test_bad_grid_point_is_data_error(self, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        grid.write_text("lat,lon\n0.001,0.002\nx,0.002\n")
        (tmp_path / "fixtures").mkdir()
        config = _config(
            tmp_path, f"paths.grid_csv = {grid}\npaths.fixtures = {tmp_path / 'fixtures'}\n"
        )
        assert run_command(["fetch", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert f"{grid}:3" in capsys.readouterr().err

    def test_unknown_selected_feature_is_data_error(self, mini_run, tmp_path, capsys):
        _, out = mini_run
        refs = tmp_path / "refs.csv"
        refs.write_text(
            "lat,lon,label,source_image,confidence,shift_m,extra_steps\n"
            "0.001,0.001,corn,img_a,,45.0,0\n"
        )
        selection = tmp_path / "selection.csv"
        selection.write_text("feature\nEVI\nFOO\n")
        config = _config(
            tmp_path,
            f"paths.refs_csv = {refs}\npaths.scenes = {out / 'world' / 'scenes'}\n"
            f"paths.selection = {selection}\n",
        )
        assert run_command(["train-mapper", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert f"{selection}:3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,line",
        [
            ("select-features", "features.candidates = EVI,SWIR2,EVI"),
            ("train-mapper", "features.selected = EVI,EVI"),
        ],
        ids=["candidates", "selected"],
    )
    def test_repeated_feature_is_data_error(self, mini_run, tmp_path, capsys, command, line):
        config, out = mini_run
        refs = tmp_path / "refs.csv"
        refs.write_text(
            "lat,lon,label,source_image,confidence,shift_m,extra_steps\n"
            "0.001,0.001,corn,img_a,,45.0,0\n"
        )
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            _set(config.read_text(), line)
            + f"paths.refs_csv = {refs}\npaths.scenes = {out / 'world' / 'scenes'}\n"
        )
        assert run_command([command, "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "feature EVI is listed twice" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("lon", "x"), ("extra_steps", "1.5")])
    def test_bad_reference_field_is_data_error(self, tmp_path, capsys, field, value):
        row = {"lat": "0.001", "lon": "0.001", "label": "corn", "source_image": "img_a",
               "confidence": "", "shift_m": "45.0", "extra_steps": "0", field: value}
        refs = tmp_path / "refs.csv"
        refs.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
        config = _config(tmp_path, f"paths.refs_csv = {refs}\n")
        assert run_command(["validate-refs", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert f"{refs}:2" in capsys.readouterr().err


class TestConfigValues:
    @pytest.mark.parametrize(
        "command,text",
        [
            ("grid", "seed = abc\nbbox = 0.0,0.01,0.0,0.01\n"),
            ("grid", "bbox = 0.0,north,0.0,0.01\n"),
            ("synth", "synth.proportions = 0.5,x,0.25\n"),
            ("train-images", "split.ratios = 0.6,0.2,y\n"),
            ("synth", "synth.noise_sigma = nan\n"),
            ("grid", "bbox = 0.0,inf,0.0,0.01\n"),
        ],
        ids=["seed", "bbox", "synth.proportions", "split.ratios", "nan", "inf"],
    )
    def test_non_numeric_value_is_usage_error(self, tmp_path, capsys, command, text):
        catalog = _tiny_catalog(tmp_path)
        config = _config(tmp_path, f"paths.training_catalog = {catalog}\n" + text)
        assert run_command([command, "--config", str(config), "--out", str(tmp_path)]) == 1
        assert "is not a" in capsys.readouterr().err

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"region = illinois\nseed = 1\ngrid.spacing_m = 3\xff0\n")
        assert run_command(["grid", "--config", str(config), "--out", str(tmp_path)]) == 1
        assert "not UTF-8" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(mini_run):
    """mini_run plus an image model in its --out."""
    config, out = mini_run
    assert run_command(["train-images", "--config", str(config), "--out", str(out)]) == 0
    return config, out


class TestLazyImages:
    def test_qc_and_make_refs_read_no_pixels(self, trained, tmp_path):
        config, out = trained
        fixtures = tmp_path / "fixtures"
        shutil.copytree(out / "world" / "fixtures", fixtures)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            config.read_text()
            + f"paths.fixtures = {fixtures}\npaths.grid_csv = {out / 'grid.csv'}\n"
            + f"paths.image_model = {out / 'image_model.rtnn'}\n"
            + f"paths.truth = {out / 'world' / 'truth.grid'}\n"
        )
        run_dir = tmp_path / "run"
        names = ("kept.csv", "dropped.csv", "refs.csv")
        for command in ("fetch", "classify-images", "qc", "make-refs"):
            assert run_command([command, "--config", str(cfg), "--out", str(run_dir)]) == 0
        intact = {name: (run_dir / name).read_bytes() for name in names}
        assert intact["kept.csv"].count(b"\n") > 1
        for ppm in fixtures.glob("*.ppm"):
            ppm.write_bytes(ppm.read_bytes()[:15])
        for command in ("qc", "make-refs"):
            assert run_command([command, "--config", str(cfg), "--out", str(run_dir)]) == 0
        assert {name: (run_dir / name).read_bytes() for name in names} == intact

    def test_classified_catalog_in_another_directory(self, trained, tmp_path):
        config, out = trained
        shared = (
            config.read_text()
            + f"paths.campaign_catalog = {out / 'campaign.csv'}\n"
            + f"paths.image_model = {out / 'image_model.rtnn'}\n"
            + f"paths.truth = {out / 'world' / 'truth.grid'}\n"
        )
        results = {}
        for layout, extra in (("flat", ""), ("nested", "paths.classified_catalog = a/b/c.csv\n")):
            cfg = tmp_path / f"{layout}.cfg"
            cfg.write_text(shared + extra)
            run_dir = tmp_path / layout
            for command in ("classify-images", "qc", "make-refs"):
                code = run_command([command, "--config", str(cfg), "--out", str(run_dir)])
                assert code == 0, (layout, command)
            results[layout] = [(run_dir / n).read_bytes() for n in ("kept.csv", "refs.csv")]
        assert (tmp_path / "a" / "b" / "c.csv").exists()
        assert results["nested"] == results["flat"]


# Each builder returns (command, config path, the file the error must name).


def _config_is_a_directory(tmp_path):
    config = tmp_path / "run.cfg"
    config.mkdir()
    return "grid", config, config


def _truth_is_a_directory(tmp_path):
    truth = tmp_path / "truth.grid"
    truth.mkdir()
    return "grid", _config(tmp_path, f"paths.truth = {truth}\n"), truth


def _model_is_a_directory(tmp_path):
    model = tmp_path / "pixel_model.rtnn"
    model.mkdir()
    return "map", _config(tmp_path, f"paths.pixel_model = {model}\n"), model


def _bad_byte_in_rejection_list(tmp_path):
    catalog = _tiny_catalog(tmp_path)
    rejected = tmp_path / "rejected.txt"
    rejected.write_bytes(b"img\n\xff\n")
    text = f"paths.classified_catalog = {catalog}\nqc.rejection_list = {rejected}\n"
    return "qc", _config(tmp_path, text), rejected


def _bad_byte_in_legend(tmp_path):
    crop_map = tmp_path / "crop_map.grid"
    write_grid(make_grid([[0.0, 1.0]]), crop_map)
    legend = tmp_path / "crop_map.grid.legend"
    legend.write_bytes(b"0=corn\n1=soy\xffbeans\n")
    return "evaluate", _config(tmp_path, f"paths.map_grid = {crop_map}\n"), legend


def _bad_byte_in_fixture_meta(tmp_path):
    """A bad byte in the date comment of a fixture's header (where the
    ``.meta`` sidecar of this case's name once held the date)."""
    point = GeoPoint(0.001, 0.002)
    fixtures = tmp_path / "fixtures"
    date = datetime.date(2013, 7, 1)
    ppm = write_fixture(fixtures, point, Heading.NORTH, np.zeros((2, 2, 3), dtype=np.uint8), date)
    ppm.write_bytes(ppm.read_bytes().replace(b"date=2013-07\n", b"date=2013-07\xff\n", 1))
    grid = tmp_path / "grid.csv"
    grid.write_text(f"lat,lon\n{point.lat_deg!r},{point.lon_deg!r}\n")
    text = f"paths.grid_csv = {grid}\npaths.fixtures = {fixtures}\n"
    return "fetch", _config(tmp_path, text), ppm


def _output_is_a_directory(tmp_path):
    taken = tmp_path / "taken"
    taken.mkdir()
    text = f"bbox = 0.0,0.001,0.0,0.001\npaths.grid_csv = {taken}\n"
    return "grid", _config(tmp_path, text), taken


class TestUnreadableFiles:
    @pytest.mark.parametrize(
        "build,code",
        [
            (_config_is_a_directory, 1),
            (_truth_is_a_directory, 2),
            (_model_is_a_directory, 2),
            (_bad_byte_in_rejection_list, 2),
            (_bad_byte_in_legend, 2),
            (_bad_byte_in_fixture_meta, 2),
            (_output_is_a_directory, 2),
        ],
        ids=lambda v: v.__name__.strip("_") if callable(v) else None,
    )
    def test_exit_code_names_the_file(self, tmp_path, capsys, build, code):
        command, config, named = build(tmp_path)
        out = tmp_path / "out"
        assert run_command([command, "--config", str(config), "--out", str(out)]) == code
        assert str(named) in capsys.readouterr().err

    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(BYTE_EDITS)
    def test_mutated_config_never_exits_3(self, tmp_path, edits):
        """No bbox key: the truth raster bounds the grid, so no edit can ask for a huge one."""
        write_grid(make_grid(np.zeros((3, 3))), tmp_path / "truth.grid")
        config = tmp_path / "run.cfg"
        text = b"region = illinois\nseed = 1\ngrid.spacing_m = 30\npaths.truth = truth.grid\n"
        config.write_bytes(mutate_bytes(text, edits))
        out = tmp_path / "out"
        assert run_command(["grid", "--config", str(config), "--out", str(out)]) in (0, 1, 2)


def _readme_defaults() -> dict[str, str]:
    """Key -> default cell of each README table headed ``| key | default | meaning |``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cells = {}
    for table in readme.split("| key | default | meaning |\n")[1:]:
        rows = table.split("\n\n", 1)[0]
        for key, default in re.findall(r"^\| `([\w.]+)` \| ([^|]*) \|", rows, flags=re.MULTILINE):
            assert key not in cells, f"README documents {key} twice"
            cells[key] = default
    return cells


def test_readme_documents_every_config_key():
    """README's config-key tables list exactly the keys of ``CONFIG_KEYS``, each
    with its default: a path key's under ``--out``, and no literal for an unset one."""
    documented = _readme_defaults()
    assert sorted(set(cli.CONFIG_KEYS) - set(documented)) == [], "keys missing from README"
    assert sorted(set(documented) - set(cli.CONFIG_KEYS)) == [], "README documents unknown keys"
    for key, (_, default) in cli.CONFIG_KEYS.items():
        if default is None:
            assert not re.fullmatch(r"`[^`]*`", documented[key]), f"{key} has no default"
        elif key.startswith("paths."):
            assert documented[key] == f"`--out/{default}`", key
        else:
            assert documented[key] == f"`{default}`", key


@pytest.mark.parametrize(
    "line",
    [
        "grid.spacing = 10", "synth.cell_m = 30", "Seed = 1", "paths.scnes = elsewhere",
        "paths.world = w2", "paths.image_confusion = report.txt",
    ],
)
def test_unknown_config_key_is_usage_error(tmp_path, capsys, line):
    config = tmp_path / "run.cfg"
    config.write_text(f"region = illinois\nseed = 1\n{line}\n")
    assert run_command(["grid", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    key = line.split("=")[0].strip()
    assert f"{config}:3: unknown config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line",
    [f"{key} =" for key in cli.CONFIG_KEYS]
    + [
        "net.epochs = x", "seed = 1.5", "refs.others_count = -5", "net.epochs = -1",
        "region = atlantis", "bbox = 0.0,0.01,0.0",
        "bbox = 0.01,0.0,0.0,0.01", "features.selected = EVI,FOO", "synth.parcel_cells = 8.0",
        "net.epochs = \u0663", "grid.spacing_m = 3_0", "seed = \uff17", "net.momentum = 0_9",
        "split.ratios = 0.6,0.2,0.\u0662",
    ],
)
def test_malformed_value_is_usage_error_before_out_exists(tmp_path, capsys, line):
    """Every value is parsed when the config loads, so nothing is written."""
    config = tmp_path / "run.cfg"
    config.write_text(f"region = illinois\nseed = 1\n{line}\n")
    assert run_command(["grid", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    key = line.split("=")[0].strip()
    assert f"{config}:3: config key {key} " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_path_key_moves_an_artifact_for_its_writer_and_its_reader(tmp_path):
    """``grid`` writes and ``fetch`` reads the configured ``paths.grid_csv``, resolved
    against the config's directory; ``paths.campaign_catalog`` stays at its default."""
    (tmp_path / "fixtures").mkdir()
    config = _config(
        tmp_path,
        "bbox = 0.0,0.001,0.0,0.001\npaths.grid_csv = sub/points.csv\npaths.fixtures = fixtures\n",
    )
    out = tmp_path / "out"
    for command in ("grid", "fetch"):
        assert run_command([command, "--config", str(config), "--out", str(out)]) == 0
    points = tmp_path / "sub" / "points.csv"
    assert points.read_text().startswith("lat,lon\n")
    assert not (out / "grid.csv").exists()
    assert f"output={points}\n" in (out / "grid.manifest").read_text()
    fetch = (out / "fetch.manifest").read_text()
    assert f"input={points}\n" in fetch and f"output={out / 'campaign.csv'}\n" in fetch


def test_oversized_world_is_data_error(tmp_path, capsys):
    config = _config(tmp_path, "synth.parcel_cells = 100000\n")
    out = tmp_path / "out"
    assert run_command(["synth", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "synth.parcels_per_side" in err and "synth.parcel_cells" in err
    assert not (out / "world").exists()


@pytest.mark.parametrize(
    "line,message",
    [
        (
            "synth.proportions = 0.5,0.5\n",
            "synth.proportions has 2 weights; region illinois needs 3",
        ),
        ("synth.parcels_per_side = 0\n", "synth.parcels_per_side must be at least 1"),
        (
            "synth.parcels_per_side = 4\nsynth.proportions = 0.5,0,0.5\nsynth.n_per_class = 5\n",
            "only 0 candidate views of class soybean; synth.n_per_class needs 5",
        ),
        ("synth.fixture_stride = 0\n", "synth.fixture_stride must be at least 1"),
    ],
    ids=["proportions", "parcels_per_side", "n_per_class", "fixture_stride"],
)
def test_world_config_error_names_the_key(tmp_path, capsys, line, message):
    config = _config(tmp_path, line)
    out = tmp_path / "out"
    assert run_command(["synth", "--config", str(config), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "world").exists()


#: What the fanned-out stages write: classify-images, select-features, train-mapper and map.
FANNED_OUT = (
    "classified.csv",
    "selection.txt",
    "selection.csv",
    "dropout_sweep.csv",
    "pixel_model.rtnn",
    "crop_map.grid",
)


@pytest.fixture(scope="module")
def serial_chain(tmp_path_factory):
    """The whole chain, with a dropout sweep, on one worker: (config, out,
    the bytes of each file of :data:`FANNED_OUT`)."""
    base = tmp_path_factory.mktemp("serial")
    config = base / "run.cfg"
    config.write_text(MINI_CONFIG + "net.dropout_grid = 0.1,0.3\n")
    out = base / "run"
    with pytest.MonkeyPatch.context() as mp:
        force_workers(mp, 1)
        mp.setattr(os, "fork", None)  # one worker forks nothing
        for command in cli.COMMANDS:
            assert run_command([command, "--config", str(config), "--out", str(out)]) == 0
    return config, out, {name: (out / name).read_bytes() for name in FANNED_OUT}


@pytest.mark.parametrize("cpus", [2, 3])
def test_worker_count_leaves_the_outputs_byte_equal(serial_chain, monkeypatch, cpus):
    config, out, serial = serial_chain
    force_workers(monkeypatch, cpus)
    for command in ("classify-images", "select-features", "train-mapper", "map"):
        assert run_command([command, "--config", str(config), "--out", str(out)]) == 0
        assert_no_child_left()
    assert (out / "classified.csv").read_bytes() == serial["classified.csv"]
    assert (out / "crop_map.grid").read_bytes() == serial["crop_map.grid"]
    assert {name: (out / name).read_bytes() for name in FANNED_OUT} == serial


def test_truncated_image_in_a_helper_chunk_is_data_error(
    serial_chain, tmp_path, monkeypatch, capsys
):
    """412 campaign images go in 21-image chunks on two workers; chunk 1 is the child's."""
    config, out, _ = serial_chain
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    rows = (copy / "campaign.csv").read_text().splitlines()
    broken = copy / rows[1 + 25].split(",")[1]
    broken.write_bytes(broken.read_bytes()[:-5])
    force_workers(monkeypatch, 2)
    assert run_command(["classify-images", "--config", str(config), "--out", str(copy)]) == 2
    assert f"{broken}: payload is" in capsys.readouterr().err
    assert_no_child_left()


def test_a_dead_worker_is_data_error(serial_chain, tmp_path, monkeypatch, capsys):
    """A child that dies mid-stage is an ``OSError`` to the CLI: exit 2."""
    parent, predict_batch = os.getpid(), neuralnet.predict_batch

    def dying_predict_batch(*args):
        if os.getpid() != parent:
            os._exit(1)
        return predict_batch(*args)

    config, out, serial = serial_chain
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    monkeypatch.setattr(neuralnet, "predict_batch", dying_predict_batch)
    force_workers(monkeypatch, 2)
    assert run_command(["classify-images", "--config", str(config), "--out", str(copy)]) == 2
    assert "data error: worker for items 1, 3, 5," in capsys.readouterr().err
    assert (copy / "classified.csv").read_bytes() == serial["classified.csv"]
    assert_no_child_left()


@pytest.mark.parametrize(
    "line,message",
    [
        ("net.epochs = 0", "net.epochs must be >= 1"),
        ("net.learning_rate = 0", "net.learning_rate must be > 0"),
        ("net.momentum = 1", "net.momentum must be in [0, 1)"),
        ("net.batch_size = 0", "net.batch_size must be >= 1"),
        ("net.dropout_rate = 1", "net.dropout_rate must be in [0, 1)"),
        ("net.dropout_grid = 0.1,1.5", "net.dropout_grid rate 1.5 must be in [0, 1)"),
    ],
    ids=["epochs", "learning_rate", "momentum", "batch_size", "dropout_rate", "dropout_grid"],
)
def test_train_config_error_names_the_key(serial_chain, tmp_path, capsys, line, message):
    config, out, _ = serial_chain
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        _set(config.read_text(), line)
        + f"paths.refs_csv = {out / 'refs.csv'}\n"
        + f"paths.scenes = {out / 'world' / 'scenes'}\n"
        + f"paths.selection = {out / 'selection.csv'}\n"
    )
    bad_out = tmp_path / "out"
    assert run_command(["train-mapper", "--config", str(bad), "--out", str(bad_out)]) == 2
    assert f"data error: {message}" in capsys.readouterr().err
    assert not (bad_out / "pixel_model.rtnn").exists()


@pytest.fixture(scope="module")
def chain_run(tmp_path_factory):
    """All 12 stages of ``MINI_CONFIG`` run once; tests that rerun a stage
    copy the run or write elsewhere."""
    base = tmp_path_factory.mktemp("chain")
    config = base / "run.cfg"
    config.write_text(MINI_CONFIG)
    out = base / "run"
    for command in cli.COMMANDS:
        assert run_command([command, "--config", str(config), "--out", str(out)]) == 0, command
    return out


def test_every_written_grid_has_a_verified_twin(chain_run):
    """After the whole chain, each grid under --out sits next to a twin whose
    digest covers that grid's text and whose payload holds its values."""
    out = chain_run
    grids = sorted(out.rglob("*.grid"))
    assert {"truth.grid", "crop_map.grid"} <= {g.name for g in grids}
    assert len(grids) == 2 + 10 * 7
    for grid in grids:
        digest, payload = grid.with_name(grid.name + ".f8").read_bytes().split(b"\n", 1)
        text = grid.read_bytes()
        assert digest == hashlib.sha256(text + payload).hexdigest().encode(), grid
        values = np.array(text.decode().split("\n", 6)[6].split(), dtype=np.float64)
        assert payload == values.astype("<f8").tobytes(), grid


def test_bbox_bounds_the_grid_and_not_the_map(chain_run, tmp_path):
    """With a bbox over the south-west of the world, map still covers the
    scenes' whole grid, so evaluate scores it against the truth raster."""
    run = chain_run
    out = tmp_path / "run"
    shutil.copytree(run, out)
    boxed = tmp_path / "boxed.cfg"
    boxed.write_text(MINI_CONFIG + "bbox = 0.0,0.003,0.0,0.003\n")
    for command in ("grid", "map", "evaluate"):
        assert run_command([command, "--config", str(boxed), "--out", str(out)]) == 0, command
    assert len((out / "grid.csv").read_text().splitlines()) < len(
        (run / "grid.csv").read_text().splitlines()
    )
    for name in ("crop_map.grid", "crop_map.grid.f8", "crop_map.grid.legend", "evaluation.txt"):
        assert (out / name).read_bytes() == (run / name).read_bytes(), name


def test_select_features_rejects_a_class_train_mapper_would(chain_run, tmp_path, capsys):
    """A refs.csv with no corn row stops select-features as it stops
    train-mapper: exit 2, naming the class."""
    run = chain_run
    rows = (run / "refs.csv").read_text().splitlines(keepends=True)
    assert any(",corn," in row for row in rows)
    refs = tmp_path / "refs.csv"
    refs.write_text("".join(row for row in rows if ",corn," not in row))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        MINI_CONFIG + f"paths.refs_csv = {refs}\npaths.scenes = {run / 'world' / 'scenes'}\n"
        "features.selected = SWIR2\n"
    )
    out = tmp_path / "out"
    message = "class 'corn' has 0 reference points; need 5"
    for command in ("select-features", "train-mapper"):
        assert run_command([command, "--config", str(cfg), "--out", str(out)]) == 2, command
        assert message in capsys.readouterr().err
    assert not (out / "selection.csv").exists()


# The demo-e2e workload's world at seed 1, trained for one epoch only.
DEMO_CONFIG = """\
region = illinois
seed = 1
synth.parcels_per_side = 8
synth.n_per_class = 30
synth.fixture_stride = 3
synth.cloud_fraction = 0.1
net.epochs = 1
"""


def test_image_stages_decode_each_image_once(tmp_path, monkeypatch):
    """fetch checks each fixture it keeps, train-images reads the 90 training
    images and classify-images each campaign image: one decode apiece. Every
    read of an image file, for its date or its 8-bit pixels, parses it with
    ``decode_image``."""
    from streetcrop import imagery

    decoded = []
    real_decode = imagery.decode_image

    def counting_decode(data):
        decoded.append(data)
        return real_decode(data)

    monkeypatch.setattr(imagery, "decode_image", counting_decode)
    config = tmp_path / "run.cfg"
    config.write_text(DEMO_CONFIG)
    out = tmp_path / "run"
    counts = {}
    for command in ("synth", "grid", "fetch", "train-images", "classify-images"):
        decoded.clear()
        assert run_command([command, "--config", str(config), "--out", str(out)]) == 0, command
        counts[command] = len(decoded)
    assert counts == {"synth": 0, "grid": 0, "fetch": 1536, "train-images": 90,
                      "classify-images": 1536}


def test_fetch_of_a_truncated_fixture_is_data_error(mini_run, tmp_path, capsys):
    config, out = mini_run
    fixtures = tmp_path / "fixtures"
    shutil.copytree(out / "world" / "fixtures", fixtures)
    broken = sorted(fixtures.glob("*.ppm"))[0]
    broken.write_bytes(broken.read_bytes()[:-5])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        config.read_text() + f"paths.fixtures = {fixtures}\npaths.grid_csv = {out / 'grid.csv'}\n"
    )
    assert run_command(["fetch", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert "payload is" in capsys.readouterr().err


class TestRefsKeys:
    """``refs.min_per_class`` and ``shift.extra_steps`` through ``make-refs``,
    on one corn camera facing east over an all-corn world."""

    def make_refs(self, tmp_path, text):
        truth = tmp_path / "truth.grid"
        write_grid(make_grid(np.zeros((8, 8))), truth)  # 0.008 degrees a side
        catalog = _tiny_catalog(tmp_path)
        config = _config(
            tmp_path, f"paths.kept_catalog = {catalog}\npaths.truth = {truth}\n" + text
        )
        out = tmp_path / "out"
        assert run_command(["make-refs", "--config", str(config), "--out", str(out)]) == 0
        rows = [row.split(",") for row in (out / "refs.csv").read_text().splitlines()[1:]]
        return out, rows

    def test_a_class_short_of_min_per_class_walks_three_extra_steps(self, tmp_path):
        out, rows = self.make_refs(tmp_path, "refs.min_per_class = 5\n")
        assert [(row[2], row[3], int(row[6])) for row in rows] == [
            ("corn", "img", steps) for steps in range(4)
        ]
        # 0.5 * road width + (1 + extra steps) pixel sizes, both 30 m by default
        assert [float(row[5]) for row in rows] == [45.0, 75.0, 105.0, 135.0]
        assert (out / "refs_summary.txt").read_text() == "points=4\nclass.corn=4\nshort.corn=4\n"

    def test_extra_steps_adds_pixel_sizes_to_the_shift(self, tmp_path):
        text = (
            "shift.road_width_y_m = 12\nshift.pixel_size_x_m = 10\nshift.extra_steps = 1\n"
        )
        _, rows = self.make_refs(tmp_path, text)
        assert len(rows) == 1
        assert float(rows[0][5]) == 0.5 * 12 + 2 * 10
        assert rows[0][6] == "1"
        # the camera faces east: the point moves east by shift_m, not north
        assert float(rows[0][0]) == 0.001
        assert float(rows[0][1]) == pytest.approx(0.002 + 26 / 111320.0)


def test_make_refs_drops_points_shifted_off_the_world(tmp_path, capsys):
    """A camera on the north edge facing north shifts its point off the
    truth raster: make-refs drops and counts it, so validate-refs passes."""
    truth = tmp_path / "truth.grid"
    write_grid(make_grid(np.zeros((4, 4))), truth)  # 0.004 degrees a side, all corn
    catalog = _tiny_catalog(tmp_path, lat="0.0015", lon="0.0015")  # faces east, inside
    with open(catalog, "a") as fh:
        fh.write("edge,img.ppm,corn,0.900000,0.0038,0.002,0,2013-07\n")  # faces north
    config = _config(tmp_path, f"paths.kept_catalog = {catalog}\npaths.truth = {truth}\n")
    out = tmp_path / "out"
    assert run_command(["make-refs", "--config", str(config), "--out", str(out)]) == 0
    assert "dropped.outside_extent=1" in capsys.readouterr().out
    assert (out / "refs_summary.txt").read_text() == (
        "points=1\nclass.corn=1\ndropped.outside_extent=1\n"
    )
    assert [row.split(",")[3] for row in (out / "refs.csv").read_text().splitlines()[1:]] == [
        "img"
    ]
    assert run_command(["validate-refs", "--config", str(config), "--out", str(out)]) == 0
