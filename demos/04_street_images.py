"""
Synthetic street imagery: rendering, fixtures, classification
=============================================================

The synthetic world renders a procedural roadside view for any road
cell and camera heading: a sky band over a class-specific field texture
(base color, crop-row stripes, speckle). This demo renders a few views,
stores them in the fixture layout the retrieval code expects, and
trains a small classifier to tell the textures apart.
"""

import tempfile
from pathlib import Path

import numpy as np

from streetcrop import neuralnet as nn
from streetcrop import synthworld as sw
from streetcrop.geocore import Heading
from streetcrop.imageclassifier import (
    ILLINOIS,
    images_to_arrays,
    read_catalog,
    split_dataset,
    train_image_classifier,
)
from streetcrop.imagery import StreetRequest, fetch_street_image, write_fixture

workdir = Path(tempfile.mkdtemp())
world = sw.generate_world(sw.WorldConfig(ILLINOIS, parcels_per_side=6, seed=4))
print(f"world: {world.truth.nrows}x{world.truth.ncols} cells, "
      f"{world.parcel_classes.size} parcels, {len(world.road_cell_centers())} road cells")

print()
print("What does each camera see?")
print("--------------------------")
row, col = world.road_cell_centers()[40]
camera = world.truth.cell_center(row, col)
for heading in Heading:
    cls = sw.facing_class(world, camera, heading)
    pixels = sw.render_street_image(world, camera, heading, seed=7)
    field = pixels[int(sw.SKY_FRACTION * len(pixels)):] / 255.0
    print(f"  facing {heading.name:<5}: {world.taxonomy.class_names[cls]:<8} "
          f"mean field color {np.round(field.mean(axis=(0, 1)), 2)}")

print()
print("Fixtures: the on-disk interchange for street images")
print("----------------------------------------------------")
fixtures = workdir / "fixtures"
pixels = sw.render_street_image(world, camera, Heading.EAST, seed=7)
path = write_fixture(fixtures, camera, Heading.EAST, pixels)
print(f"  wrote {path.name}")
record = fetch_street_image(StreetRequest(camera, Heading.EAST), fixtures)
# the renderer and PPM both hold 8-bit samples, so the image comes back exactly
print(f"  fetched it back: id={record.id}, "
      f"pixels identical: {np.array_equal(record.read_pixels(), pixels)}")

print()
print("Training a classifier on rendered textures")
print("-------------------------------------------")
catalog = sw.build_training_catalog(world, workdir / "training", n_per_class=30)
labeled = read_catalog(catalog, ILLINOIS)
train_set, val_set, test_set = split_dataset(labeled, (0.6, 0.2, 0.2), seed=4)
net, history = train_image_classifier(
    train_set, val_set, ILLINOIS, cfg=nn.TrainConfig(epochs=10, seed=4)
)
x_test, y_test = images_to_arrays(test_set)
print(f"  validation accuracy by epoch: {[round(h, 2) for h in history]}")
print(f"  held-out accuracy: {nn.accuracy(net, x_test, y_test):.3f} on {len(test_set)} images")
