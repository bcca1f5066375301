import csv
import os

import numpy as np
import pytest
from hypothesis import strategies as st

from streetcrop.geocore import Heading, ShiftParams
from streetcrop.imageclassifier import ILLINOIS, LabeledImage
from streetcrop.imagery import StreetImageRecord
from streetcrop.rasterstack import BAND_NAMES, RasterGrid, SceneManifest, write_grid, write_manifest
from streetcrop import neuralnet, synthworld


def make_grid(values, xll=0.0, yll=0.0, cellsize=0.001, nodata=-9999.0) -> RasterGrid:
    values = np.asarray(values, dtype=np.float64)
    return RasterGrid(
        ncols=values.shape[1],
        nrows=values.shape[0],
        xll=xll,
        yll=yll,
        cellsize=cellsize,
        nodata=nodata,
        values=values,
    )


def write_scene(directory, date, band_values, qa_values, **grid_kwargs) -> SceneManifest:
    """Write one scene (six bands + QA) from in-memory arrays."""
    directory.mkdir(parents=True, exist_ok=True)
    band_paths = {}
    for band in BAND_NAMES:
        name = f"{date.isoformat()}_{band}.grid"
        write_grid(make_grid(band_values[band], **grid_kwargs), directory / name)
        band_paths[band] = name
    qa_name = f"{date.isoformat()}_qa.grid"
    write_grid(make_grid(qa_values, **grid_kwargs), directory / qa_name)
    manifest = SceneManifest(date, band_paths, qa_name)
    write_manifest(manifest, directory / f"{date.isoformat()}.manifest")
    return SceneManifest(
        date,
        {b: str(directory / p) for b, p in band_paths.items()},
        str(directory / qa_name),
    )


def force_workers(monkeypatch, n):
    """Make ``neuralnet._fan_out`` run on ``n`` workers (at most one per
    item): ``n`` usable CPUs with one BLAS thread each, not read from the host."""
    monkeypatch.setattr(neuralnet, "_usable_cpus", lambda: n)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def assert_no_child_left():
    """Every process a fan-out forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def kept_images_from_world(world, stride=2, seed=1):
    """Crop-facing labeled images at road cells, labeled by construction.

    Stands in for the classify+QC stages when a test only cares about
    what happens downstream of them.
    """
    kept = []
    for k, (r, c) in enumerate(world.road_cell_centers()):
        if k % stride:
            continue
        p = world.truth.cell_center(r, c)
        for h in Heading:
            cls = synthworld.facing_class(world, p, h)
            if cls == world.taxonomy.others_index:
                continue
            image = synthworld.render_street_image(world, p, h, seed=seed)
            record = StreetImageRecord(f"cam_{r}_{c}_{int(h)}", p, h, image)
            kept.append(LabeledImage(record, cls, confidence=0.99))
    return kept


@pytest.fixture(scope="session")
def il_world():
    """Small corn/soybean/others world shared by the slower tests."""
    cfg = synthworld.WorldConfig(ILLINOIS, parcels_per_side=8, seed=7)
    return synthworld.generate_world(cfg)


@pytest.fixture(scope="session")
def il_scenes(il_world, tmp_path_factory):
    out = tmp_path_factory.mktemp("il_scenes")
    return synthworld.synthesize_scenes(il_world, out)


def world_shift_params(world) -> ShiftParams:
    return ShiftParams(
        road_width_y_m=synthworld.ROAD_WIDTH_M, pixel_size_x_m=synthworld.CELL_M
    )


#: Up to four byte edits for :func:`mutate_bytes`.
BYTE_EDITS = st.lists(
    st.tuples(st.integers(0, 10_000), st.binary(max_size=3)), min_size=1, max_size=4
)


def mutate_bytes(data, edits):
    """``data`` with each ``(position, replacement)`` edit applied in turn: the
    byte at ``position`` (modulo the length) becomes ``replacement``, so one
    edit substitutes, deletes or inserts bytes."""
    data = bytearray(data)
    for position, replacement in edits:
        at = position % len(data)
        data[at : at + 1] = replacement
    return bytes(data)


#: Each ASCII digit's value in three other scripts: Arabic-Indic, Devanagari, fullwidth.
OTHER_DIGITS = {str(d): [chr(zero + d) for zero in (0x660, 0x966, 0xFF10)] for d in range(10)}


@st.composite
def spoiled(draw, token, pad=True):
    """``token`` with one change that Python's ``int`` or ``float`` forgives
    and the package's ASCII grammar does not: one digit written in another
    script, a ``_`` between two digits or (with ``pad``) a leading blank."""
    digits = [i for i, c in enumerate(token) if c in OTHER_DIGITS]
    pairs = [i for i in digits if i - 1 in digits]
    kinds = ["digit"] + ["underscore"] * bool(pairs) + ["pad"] * pad
    kind = draw(st.sampled_from(kinds))
    if kind == "digit":
        i = draw(st.sampled_from(digits))
        return token[:i] + draw(st.sampled_from(OTHER_DIGITS[token[i]])) + token[i + 1 :]
    if kind == "underscore":
        i = draw(st.sampled_from(pairs))
        return token[:i] + "_" + token[i:]
    return draw(st.sampled_from([" ", "\t"])) + token


def mutate_csv_cell(path, row, column, value):
    """Rewrite one data row of a CSV file: ``value`` replaces cell ``column``,
    an empty ``value`` deletes that cell, and a ``column`` past the last
    cell appends ``value`` as one cell too many."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    cells = rows[1 + row]
    if column == len(cells):
        cells.append(value)
    elif value == "":
        del cells[column]
    else:
        cells[column] = value
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
