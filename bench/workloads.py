"""The benchmark's workloads: run configs written from the seed.

Every workload is a closed loop with one client: each CLI stage starts
when the previous one returns. ``setup`` stages prepare the inputs of
the timed part; ``timed`` stages are what ``wall_s`` measures. All
stages of a workload read one config file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ALL_STAGES = (
    "synth",
    "grid",
    "fetch",
    "train-images",
    "classify-images",
    "qc",
    "make-refs",
    "validate-refs",
    "select-features",
    "train-mapper",
    "map",
    "evaluate",
)

_SHARED = {
    "grid.spacing_m": "30",
    "shift.road_width_y_m": "30",
    "shift.pixel_size_x_m": "30",
    "qc.min_confidence": "0.5",
    "refs.others_count": "150",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: tuple[str, ...]
    timed: tuple[str, ...]
    config: dict = field(default_factory=dict)

    @property
    def fresh_out(self) -> bool:
        """A workload without set-up runs the whole chain into a fresh --out
        per pass; otherwise passes rerun the timed stages in the set-up's."""
        return not self.setup

    def config_text(self, seed: int) -> str:
        values = {"seed": str(seed), **_SHARED, **self.config}
        return "".join(f"{k} = {v}\n" for k, v in values.items())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="demo-e2e",
            why="all 12 stages at desk scale into a fresh --out; image net, synth writes and "
            "PPM decode carry the time, the map path little",
            setup=(),
            timed=ALL_STAGES,
            config={
                "region": "illinois",
                "synth.parcels_per_side": "8",
                "synth.n_per_class": "30",
                "synth.fixture_stride": "3",
                "synth.cloud_fraction": "0.1",
                "net.epochs": "8",
                "features.candidates": "EVI,ENDVI,SWIR1,SWIR2",
            },
        ),
        Workload(
            name="wide-map",
            why="map + evaluate over a 181x181 px world with fixed features: grid reads, "
            "per-pixel gap fill and batched inference; no training is timed",
            setup=ALL_STAGES[:10],
            timed=("map", "evaluate"),
            config={
                "region": "illinois",
                "synth.parcels_per_side": "20",
                "synth.n_per_class": "30",
                "synth.fixture_stride": "16",
                "synth.cloud_fraction": "0.1",
                "net.epochs": "10",
                "features.candidates": "EVI,SWIR2",
                "features.selected": "EVI,SWIR2",
            },
        ),
        Workload(
            name="cloudy-select",
            why="harder regime (7 classes, 120 m parcels, noise 0.02, 30% cloud) timed from "
            "make-refs to evaluate: pixel-net training in forward selection and gap filling",
            setup=ALL_STAGES[:6],
            timed=ALL_STAGES[6:],
            config={
                "region": "california",
                "synth.parcels_per_side": "12",
                "synth.parcel_cells": "4",
                "synth.noise_sigma": "0.02",
                "synth.cloud_fraction": "0.3",
                "synth.n_per_class": "60",
                "synth.fixture_stride": "2",
                "net.epochs": "15",
                "refs.others_count": "300",
                "features.candidates": "EVI,LSWI,SWIR2",
                "features.selected": "EVI,LSWI,SWIR2",
            },
        ),
    )
}
