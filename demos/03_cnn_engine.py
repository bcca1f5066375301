"""
The CNN engine: training, gradient checking, model files
========================================================

Both classifiers in this package run on the same small engine: plain
numpy tensors, a fixed layer set, SGD with momentum, and a finite
difference gradient checker that keeps the backprop honest.
"""

import tempfile
from pathlib import Path

import numpy as np

from streetcrop import neuralnet as nn

rng = np.random.default_rng(0)

print("A toy 3-class problem: colored blobs in 8 dimensions")
print("----------------------------------------------------")
centers = rng.normal(size=(3, 8)) * 2.0
x = np.vstack([rng.normal(c, 0.5, size=(40, 8)) for c in centers])
y = np.repeat(np.arange(3), 40)

spec = nn.NetworkSpec(
    (nn.Dense(16), nn.ReLU(), nn.Dropout(0.1), nn.Dense(3), nn.Softmax()),
    input_shape=(8,),
    n_classes=3,
)
net = nn.build_network(spec, seed=1)
net, history = nn.train(net, (x, y), (x, y), nn.TrainConfig(epochs=15, seed=1))
print("  per-epoch accuracy:", [round(h, 3) for h in history])

print()
print("Gradient check against central finite differences")
print("--------------------------------------------------")
conv_spec = nn.NetworkSpec(
    (nn.Conv2D(4, 3, 3), nn.ReLU(), nn.MaxPool(2), nn.Dense(3), nn.Softmax()),
    input_shape=(2, 8, 8),
    n_classes=3,
)
conv_net = nn.build_network(conv_spec, seed=2)
sample = (rng.normal(size=(2, 8, 8)), 1)
err = nn.gradient_check(conv_net, sample, eps=1e-5)
print(f"  max relative error over all parameters: {err:.2e}")

print()
print("Model files round-trip bit-exactly")
print("----------------------------------")
path = Path(tempfile.mkdtemp()) / "toy.rtnn"
nn.serialize_model(net, path)
loaded = nn.deserialize_model(path)
probes = rng.normal(size=(5, 8))
same = np.array_equal(net.forward_batch(probes), loaded.forward_batch(probes))
print(f"  {path.name}: {path.stat().st_size} bytes, predictions identical: {same}")

labels, confidences = nn.predict_batch(loaded, probes)
print(f"  predictions for {len(probes)} random probes: classes {labels.tolist()}")
print(f"  at confidences {np.round(confidences, 3).tolist()}")
