import datetime
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import assert_no_child_left, force_workers, mutate_csv_cell
from streetcrop import neuralnet as nn
from streetcrop.errors import DataValidationError
from streetcrop.geocore import GeoPoint, Heading
from streetcrop.imageclassifier import (
    CALIFORNIA,
    CATALOG_HEADER,
    ILLINOIS,
    ImageSet,
    LabeledImage,
    LabelTaxonomy,
    classify_images,
    images_to_arrays,
    qc_filter,
    read_catalog,
    read_rejection_list,
    split_dataset,
    train_image_classifier,
    write_catalog,
)
from streetcrop.imagery import (
    ImageDecodeError,
    StreetImageRecord,
    decode_image,
    encode_image,
)


def fake_pixels(seed, size=8):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(size, size, 3), dtype=np.uint8)


def decoded_batch(paths):
    """The float oracle: each PPM file's ``decode_image`` pixels over 255,
    stacked into an (n, 3, h, w) network input."""
    pixels = [decode_image(p.read_bytes())[0] for p in paths]
    return np.stack([np.transpose(a, (2, 0, 1)) for a in pixels]) / 255.0


def fake_labeled(n, label, start=0, confidence=None, size=8):
    items = []
    for i in range(n):
        rec = StreetImageRecord(
            id=f"img_{label}_{start + i}",
            capture_point=GeoPoint(0.001 * (start + i), 0.002),
            heading=Heading.EAST,
            pixels=fake_pixels(1000 * label + start + i, size=size),
        )
        items.append(LabeledImage(rec, label, confidence))
    return items


def write_two_row_catalog(tmp_path):
    """A labeled two-image catalog at tmp_path/catalog.csv, images in tmp_path/images."""
    items = []
    for i, label in enumerate((0, 1)):
        path = tmp_path / "images" / f"img_{i}.ppm"
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(encode_image(fake_pixels(i)))
        rec = StreetImageRecord(
            f"img_{i}", GeoPoint(0.001 * i, 0.002), Heading.EAST, path=path,
            capture_date=datetime.date(2013, 7, 1),
        )
        items.append(LabeledImage(rec, label, 0.75))
    write_catalog(items, ILLINOIS, tmp_path / "catalog.csv")
    return tmp_path / "catalog.csv"


class TestTaxonomy:
    def test_builtin_taxonomies(self):
        assert len(CALIFORNIA) == 7
        assert len(ILLINOIS) == 3
        assert CALIFORNIA.class_names[-1] == "others"
        assert ILLINOIS.index("soybean") == 1

    def test_others_required(self):
        with pytest.raises(DataValidationError):
            LabelTaxonomy("x", ("corn", "soybean"))

    def test_unique_names(self):
        with pytest.raises(DataValidationError):
            LabelTaxonomy("x", ("corn", "corn", "others"))


class TestSplitDataset:
    def test_single_class_sizes(self):
        items = fake_labeled(100, 0)
        train, val, test = split_dataset(items, (0.6, 0.2, 0.2), seed=1)
        assert (len(train), len(val), len(test)) == (60, 20, 20)

    def test_zero_ratio_rejected(self):
        with pytest.raises(DataValidationError):
            split_dataset(fake_labeled(10, 0), (1.0, 0.0, 0.0), seed=1)

    def test_ratios_must_sum_to_one(self):
        with pytest.raises(DataValidationError):
            split_dataset(fake_labeled(10, 0), (0.5, 0.2, 0.2), seed=1)

    def test_same_seed_identical_membership(self):
        items = fake_labeled(30, 0) + fake_labeled(25, 1)
        a = split_dataset(items, (0.6, 0.2, 0.2), seed=9)
        b = split_dataset(items, (0.6, 0.2, 0.2), seed=9)
        for sa, sb in zip(a, b):
            assert [li.record.id for li in sa] == [li.record.id for li in sb]

    def test_disjoint_and_exhaustive(self):
        items = fake_labeled(17, 0) + fake_labeled(23, 1) + fake_labeled(11, 2)
        subsets = split_dataset(items, (0.6, 0.2, 0.2), seed=4)
        ids = [li.record.id for s in subsets for li in s]
        assert len(ids) == len(items)
        assert len(set(ids)) == len(items)

    def test_per_class_sizes_within_one(self):
        items = fake_labeled(17, 0) + fake_labeled(23, 1)
        subsets = split_dataset(items, (0.6, 0.2, 0.2), seed=4)
        for label, n in ((0, 17), (1, 23)):
            for subset, ratio in zip(subsets, (0.6, 0.2, 0.2)):
                count = sum(1 for li in subset if li.label == label)
                assert abs(count - ratio * n) <= 1

    def test_small_class_rejected(self):
        items = fake_labeled(10, 0) + fake_labeled(2, 1)
        with pytest.raises(DataValidationError):
            split_dataset(items, (0.6, 0.2, 0.2), seed=1)


class TestTrainImageClassifier:
    def tiny_taxonomy_set(self):
        # class-colored images so a tiny net separates them instantly
        items = []
        for label in range(3):
            for i in range(6):
                values = np.zeros((8, 8, 3))
                values[..., label] = 0.8
                rng = np.random.default_rng(10 * label + i)
                values += rng.uniform(0, 0.2, values.shape)
                rec = StreetImageRecord(
                    f"t_{label}_{i}", GeoPoint(0, 0), Heading.NORTH,
                    np.rint(np.clip(values, 0, 1) * 255.0).astype(np.uint8),
                )
                items.append(LabeledImage(rec, label))
        return items

    def test_missing_class_rejected(self):
        items = fake_labeled(6, 0)
        with pytest.raises(DataValidationError):
            train_image_classifier(items, items, ILLINOIS)

    def test_learns_colored_classes(self):
        items = self.tiny_taxonomy_set()
        spec = nn.NetworkSpec(
            (nn.Conv2D(4, 3, 3), nn.ReLU(), nn.MaxPool(2), nn.Dense(3), nn.Softmax()),
            (3, 8, 8),
            3,
        )
        net, history = train_image_classifier(
            items, items, ILLINOIS, net_spec=spec, cfg=nn.TrainConfig(epochs=12, seed=0)
        )
        assert len(history) == 12
        assert history[-1] == 1.0

    def test_saved_header_records_trained_dropout_rate(self, tmp_path):
        items = self.tiny_taxonomy_set()
        spec = nn.NetworkSpec(
            (nn.Conv2D(4, 3, 3), nn.ReLU(), nn.MaxPool(2), nn.Dropout(0.1), nn.Dense(3),
             nn.Softmax()),
            (3, 8, 8),
            3,
        )
        net, _ = train_image_classifier(
            items, items, ILLINOIS, net_spec=spec,
            cfg=nn.TrainConfig(epochs=1, dropout_rate=0.4, seed=0),
        )
        assert [ls.rate for ls in net.spec.layers if isinstance(ls, nn.Dropout)] == [0.4]
        path = tmp_path / "model.rtnn"
        nn.serialize_model(net, path)
        assert b"\nlayer dropout 0.4\n" in path.read_bytes()
        assert nn.deserialize_model(path).spec == net.spec


class TestImageSet:
    def every_byte_items(self, tmp_path):
        """Twelve 8 px images in three classes that hold every 8-bit value
        between them, each also written to a PPM file: even ones are read
        from their file, odd ones held in memory. Returns (items, paths)."""
        rng = np.random.default_rng(17)
        values = rng.permutation(np.arange(12 * 8 * 8 * 3) % 256).reshape(12, 8, 8, 3)
        items, paths = [], []
        for i, pixels in enumerate(values.astype(np.uint8)):
            point = GeoPoint(0.001 * i, 0.002)
            path = tmp_path / f"img_{i}.ppm"
            path.write_bytes(encode_image(pixels))
            paths.append(path)
            if i % 2:
                rec = StreetImageRecord(f"img_{i}", point, Heading.EAST, pixels)
            else:
                rec = StreetImageRecord(f"img_{i}", point, Heading.EAST, path=path)
            items.append(LabeledImage(rec, i % 3))
        return items, paths

    def test_8_bit_set_gives_the_float_batches_and_trains_the_same_model(self, tmp_path):
        items, paths = self.every_byte_items(tmp_path)
        x8, y = images_to_arrays(items)
        x = decoded_batch(paths)
        assert isinstance(x8, ImageSet) and x8.raw.dtype == np.uint8
        assert x8.shape == x.shape == (12, 3, 8, 8) and len(x8) == 12
        take = np.array([7, 0, 11, 4])
        for idx in (take, slice(None), slice(3, 9)):
            assert x8[idx].dtype == np.float64
            assert x8[idx].tobytes() == x[idx].tobytes()
        spec = nn.NetworkSpec(
            (nn.Conv2D(4, 3, 3), nn.ReLU(), nn.MaxPool(2), nn.Dropout(0.2), nn.Dense(3),
             nn.Softmax()),
            (3, 8, 8),
            3,
        )
        cfg = nn.TrainConfig(epochs=3, batch_size=5, seed=2)
        sets = {
            "8-bit": (x8, images_to_arrays(items[::2])[0]),
            "float64": (x, decoded_batch(paths[::2])),
        }
        models = []
        for name, (x_train, x_val) in sets.items():
            net = nn.build_network(spec, seed=3)
            nn.train(net, (x_train, y), (x_val, y[::2]), cfg)
            nn.serialize_model(net, tmp_path / f"{name}.rtnn")
            models.append((tmp_path / f"{name}.rtnn").read_bytes())
        assert models[0] == models[1]


class TestClassifyImages:
    def small_net(self, size=8):
        # 8 px would collapse the default conv stack; use a small custom spec
        spec = nn.NetworkSpec(
            (nn.Conv2D(4, 3, 3), nn.ReLU(), nn.MaxPool(2), nn.Dense(3), nn.Softmax()),
            (3, size, size),
            3,
        )
        return nn.build_network(spec, seed=0)

    def test_empty_input(self):
        assert classify_images(self.small_net(), []) == []

    def test_output_count_and_order(self):
        records = [li.record for li in fake_labeled(5, 0)]
        out = classify_images(self.small_net(), records)
        assert len(out) == 5
        assert [li.record.id for li in out] == [r.id for r in records]

    def test_confidences_in_unit_interval(self):
        records = [li.record for li in fake_labeled(5, 1)]
        out = classify_images(self.small_net(), records)
        assert all(0.0 <= li.confidence <= 1.0 for li in out)

    def test_pure_function_of_image(self):
        records = [li.record for li in fake_labeled(3, 0)]
        net = self.small_net()
        a = classify_images(net, records)
        b = classify_images(net, records)
        assert [(x.label, x.confidence) for x in a] == [(x.label, x.confidence) for x in b]

    def test_memory_does_not_grow_with_the_image_count(self, tmp_path):
        """600 images of 32 px hold 15 MB of pixels and an all-at-once batch
        of 256 builds 50 MB of im2col per conv: streamed, neither shows."""
        records = []
        for i in range(600):
            path = tmp_path / f"img_{i}.ppm"
            path.write_bytes(encode_image(fake_pixels(i, size=32)))
            records.append(StreetImageRecord(f"img_{i}", GeoPoint(0.0, 0.0), Heading.EAST, path=path))
        net = nn.build_network(nn.default_image_spec((3, 32, 32), 3), seed=0)
        tracemalloc.start()
        try:
            labeled = classify_images(net, records)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(labeled) == 600
        assert peak < 40e6
        assert held < 5e6  # no record keeps the pixels it was classified from

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_worker_count_does_not_change_the_labels(self, monkeypatch, cpus):
        """100 images in chunks of 43, 21 or 14: labels equal, confidences to the last bits."""
        records = [li.record for li in fake_labeled(100, 0, size=32)]
        net = nn.build_network(nn.default_image_spec((3, 32, 32), 3), seed=0)
        force_workers(monkeypatch, 1)
        serial = classify_images(net, records)
        force_workers(monkeypatch, cpus)
        spread = classify_images(net, records)
        assert_no_child_left()
        assert [li.record.id for li in spread] == [r.id for r in records]
        assert all(li.record is r for li, r in zip(spread, records))  # the caller's own records
        assert [li.label for li in spread] == [li.label for li in serial]
        np.testing.assert_allclose(
            [li.confidence for li in spread], [li.confidence for li in serial], rtol=0, atol=1e-15
        )

    def test_bad_file_in_a_helper_chunk_names_the_file(self, tmp_path, monkeypatch):
        records = []
        for i in range(30):
            path = tmp_path / f"img_{i}.ppm"
            path.write_bytes(encode_image(fake_pixels(i, size=32)))
            records.append(StreetImageRecord(path.stem, GeoPoint(0.0, 0.0), Heading.EAST, path=path))
        broken = tmp_path / "img_25.ppm"  # chunk 1 of 21-image chunks: the helper's
        broken.write_bytes(broken.read_bytes()[:-5])
        net = nn.build_network(nn.default_image_spec((3, 32, 32), 3), seed=0)
        force_workers(monkeypatch, 2)
        with pytest.raises(ImageDecodeError, match="img_25.ppm: payload is"):
            classify_images(net, records)
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_predictions_are_those_of_the_decoded_floats(self, tmp_path, monkeypatch, workers):
        """50 images of 32 px, every other one held in memory: each chunk's
        labels and confidences are, byte for byte, ``predict_batch`` on the
        ``decode_image`` floats of the same images in the same chunks."""
        items, paths = [], []
        for i in range(50):
            path = tmp_path / f"img_{i}.ppm"
            path.write_bytes(encode_image(fake_pixels(i, size=32)))
            paths.append(path)
            point = GeoPoint(0.0, 0.0)
            if i % 2:
                items.append(StreetImageRecord(path.stem, point, Heading.EAST, fake_pixels(i, 32)))
            else:
                items.append(StreetImageRecord(path.stem, point, Heading.EAST, path=path))
        net = nn.build_network(nn.default_image_spec((3, 32, 32), 3), seed=0)
        force_workers(monkeypatch, workers)
        step = nn._worker_batch(net, len(items))
        assert step < len(items)  # more than one chunk
        labeled = classify_images(net, items)
        assert_no_child_left()
        labels, confidences = nn.predict_batch(net, decoded_batch(paths), batch_size=step)
        assert np.array([li.label for li in labeled]).tobytes() == labels.tobytes()
        assert np.array([li.confidence for li in labeled]).tobytes() == confidences.tobytes()
        assert all(li.record is r for li, r in zip(labeled, items))

    def test_mixed_image_sizes_are_data_error(self):
        records = [li.record for li in fake_labeled(2, 0) + fake_labeled(1, 0, start=5, size=9)]
        with pytest.raises(DataValidationError, match="mixed image sizes: 'img_0_5'"):
            classify_images(self.small_net(), records)


class TestQcFilter:
    def items(self):
        corn = fake_labeled(3, ILLINOIS.index("corn"), confidence=0.9)
        weak = fake_labeled(2, ILLINOIS.index("soybean"), start=50, confidence=0.3)
        others = fake_labeled(2, ILLINOIS.others_index, start=80, confidence=0.99)
        return corn + weak + others

    def test_threshold_zero_drops_only_others(self):
        kept, dropped = qc_filter(self.items(), ILLINOIS, min_confidence=0.0)
        assert len(kept) == 5
        assert all(li.label == ILLINOIS.others_index for li in dropped)

    def test_threshold_one_drops_everything_below(self):
        kept, dropped = qc_filter(self.items(), ILLINOIS, min_confidence=1.0)
        assert kept == []

    def test_rejection_list_overrides_confidence(self):
        items = self.items()
        target = items[0].record.id
        kept, dropped = qc_filter(items, ILLINOIS, 0.5, rejection_ids={target})
        assert target not in [li.record.id for li in kept]
        assert target in [li.record.id for li in dropped]

    def test_partition(self):
        items = self.items()
        kept, dropped = qc_filter(items, ILLINOIS, 0.5)
        assert len(kept) + len(dropped) == len(items)
        assert set(id(li) for li in kept).isdisjoint(id(li) for li in dropped)

    def test_unknown_rejection_id_warns(self):
        with pytest.warns(UserWarning, match="ghost"):
            qc_filter(self.items(), ILLINOIS, 0.5, rejection_ids={"ghost"})

    def test_hand_labels_have_no_confidence_and_survive(self):
        hand = fake_labeled(3, 0, confidence=None)
        kept, dropped = qc_filter(hand, ILLINOIS, min_confidence=0.9)
        assert len(kept) == 3


class TestCatalogIO:
    def test_round_trip(self, tmp_path):
        import datetime

        from streetcrop.imagery import encode_image

        items = fake_labeled(3, 0, confidence=0.75)
        items = [
            LabeledImage(
                StreetImageRecord(
                    li.record.id,
                    li.record.capture_point,
                    li.record.heading,
                    li.record.pixels,
                    capture_date=datetime.date(2013, 7, 1),
                    path=tmp_path / "images" / f"{li.record.id}.ppm",
                ),
                li.label,
                li.confidence,
            )
            for li in items
        ]
        (tmp_path / "images").mkdir()
        for li in items:
            li.record.path.write_bytes(encode_image(li.record.pixels))
        write_catalog(items, ILLINOIS, tmp_path / "catalog.csv")
        back = read_catalog(tmp_path / "catalog.csv", ILLINOIS)
        assert len(back) == 3
        for orig, loaded in zip(items, back):
            assert loaded.record.id == orig.record.id
            assert loaded.label == orig.label
            assert loaded.confidence == pytest.approx(orig.confidence)
            assert loaded.record.capture_date.strftime("%Y-%m") == "2013-07"
            np.testing.assert_array_equal(loaded.record.read_pixels(), orig.record.pixels)

    def test_missing_catalog(self, tmp_path):
        with pytest.raises(DataValidationError):
            read_catalog(tmp_path / "absent.csv", ILLINOIS)

    def test_read_pixels_reads_the_file_on_every_call_and_keeps_nothing(self, tmp_path):
        catalog = write_two_row_catalog(tmp_path)
        ppm = tmp_path / "images" / "img_0.ppm"
        record = read_catalog(catalog, ILLINOIS)[0].record
        assert record.path.resolve() == ppm.resolve()
        pixels = record.read_pixels()
        assert pixels.dtype == np.uint8
        np.testing.assert_array_equal(pixels, fake_pixels(0))
        assert record.pixels is None
        ppm.write_bytes(encode_image(fake_pixels(5)))
        np.testing.assert_array_equal(record.read_pixels(), fake_pixels(5))  # read again
        assert record.pixels is None
        ppm.write_bytes(ppm.read_bytes()[:20])
        with pytest.raises(ImageDecodeError) as err:
            record.read_pixels()
        assert str(record.path) in str(err.value)

    def test_unlabeled_rows_round_trip(self, tmp_path):
        catalog = write_two_row_catalog(tmp_path)
        unlabeled = [LabeledImage(li.record) for li in read_catalog(catalog, ILLINOIS)]
        write_catalog(unlabeled, ILLINOIS, tmp_path / "sub" / "campaign.csv")
        rows = (tmp_path / "sub" / "campaign.csv").read_text().splitlines()
        assert rows[1].split(",")[1:4] == ["../images/img_0.ppm", "", ""]
        back = read_catalog(tmp_path / "sub" / "campaign.csv", ILLINOIS)
        assert [li.label for li in back] == [None, None]
        assert [li.record.path.resolve() for li in back] == [li.record.path for li in unlabeled]

    def test_record_without_file_cannot_be_written(self, tmp_path):
        with pytest.raises(DataValidationError, match="no file"):
            write_catalog(fake_labeled(1, 0), ILLINOIS, tmp_path / "catalog.csv")

    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        row=st.integers(0, 1),
        column=st.integers(0, len(CATALOG_HEADER)),
        value=st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    )
    def test_mutated_rows_raise_only_data_errors(self, tmp_path, row, column, value):
        catalog = write_two_row_catalog(tmp_path)
        mutate_csv_cell(catalog, row, column, value)
        try:
            read_catalog(catalog, ILLINOIS)
        except DataValidationError as exc:
            assert str(catalog) in str(exc)


class TestRejectionList:
    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "reject.txt"
        path.write_text("# header comment\nimg_1\n\nimg_2  # trailing\n")
        assert read_rejection_list(path) == {"img_1", "img_2"}
