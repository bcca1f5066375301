"""
Vegetation indices, QA masking and temporal gap filling
=======================================================

Pixel classification feeds on per-date band values and four indices
derived from them. This demo computes the indices on a toy grid, then
builds a ``SceneStack`` of two features over three scenes and shows how
the QA grid masks cells and how each per-pixel time series is gap-filled
before it reaches the model.
"""

import datetime
import tempfile
from pathlib import Path

import numpy as np

from streetcrop.rasterstack import (
    BAND_NAMES,
    FeatureName,
    RasterGrid,
    SceneManifest,
    SceneStack,
    compute_index,
    write_grid,
    write_manifest,
)


def grid(values):
    values = np.asarray(values, dtype=float)
    return RasterGrid(values.shape[1], values.shape[0], 0.0, 0.0, 0.001, -9999.0, values)


print("Index arithmetic")
print("----------------")
nir = grid([[0.5, 0.4], [0.3, 0.6]])
red = grid([[0.1, 0.1], [0.1, 0.1]])
blue = grid([[0.05, 0.05], [0.05, 0.05]])
ndvi = compute_index(FeatureName.NDVI, {"NIR": nir, "Red": red})
evi = compute_index(FeatureName.EVI, {"NIR": nir, "Red": red, "Blue": blue})
print("  NDVI:\n", ndvi.values)
print("  EVI:\n", evi.values)

print()
print("Per-pixel temporal stacks: QA masking and gap filling")
print("-----------------------------------------------------")
# Three scenes. QA 0 is clear and anything else masks the cell: the
# middle scene is cloudy (QA 1) except in its top-right cell, so the
# other cells' values are interpolated from the neighboring dates before
# the model sees them.
workdir = Path(tempfile.mkdtemp())
dates = [datetime.date(2013, 5, 1) + datetime.timedelta(days=30 * i) for i in range(3)]
nir_by_date = [0.2, 0.9, 0.4]  # the 0.9 is clouded over in three of four cells
manifests = []
for date, nir_value in zip(dates, nir_by_date):
    band_paths = {}
    for band in BAND_NAMES:
        value = nir_value if band == "NIR" else 0.1
        name = f"{date.isoformat()}_{band}.grid"
        write_grid(grid(np.full((2, 2), value)), workdir / name)
        band_paths[band] = name
    qa_values = np.zeros((2, 2))
    if date == dates[1]:
        qa_values = np.array([[1.0, 0.0], [1.0, 1.0]])
    write_grid(grid(qa_values), workdir / f"{date.isoformat()}_qa.grid")
    manifest = SceneManifest(date, band_paths, f"{date.isoformat()}_qa.grid")
    write_manifest(manifest, workdir / f"{date.isoformat()}.manifest")
    manifests.append(
        SceneManifest(
            date,
            {b: str(workdir / p) for b, p in band_paths.items()},
            str(workdir / f"{date.isoformat()}_qa.grid"),
        )
    )

# the stack reads every grid its two features need here, and none later
stack = SceneStack.from_manifests(manifests, [FeatureName.NIR, FeatureName.NDVI])
print("  dates:", [d.isoformat() for d in stack.dates])
matrix, observed, usable = stack.fill_cells(slice(None), slice(None))
print("  NIR observed (QA == 0) in the middle scene:\n", observed[:, :, 1, 0])
for row, col in ((0, 0), (0, 1)):
    print(f"  cell ({row}, {col}) NIR series:", np.round(matrix[row, col, :, 0], 3),
          "observed:", observed[row, col, :, 0])
print("  every cell usable:", bool(usable.all()))
