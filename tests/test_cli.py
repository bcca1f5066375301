import pytest

from streetcrop.cli import RunConfig, run_command
from streetcrop.errors import UsageError


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
        assert cfg.path("paths.truth") == tmp_path / "world" / "truth.grid"


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
        for name in ("truth.grid", "roadmask.grid", "extent.txt"):
            assert (out / "world" / name).exists()
        assert (out / "world" / "training" / "catalog.csv").exists()
        assert list((out / "world" / "scenes").glob("*.manifest"))
        assert list((out / "world" / "fixtures").glob("*.ppm"))

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
