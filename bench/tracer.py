"""Span recorder installed from outside the package.

``Tracer.install()`` wraps the public functions of every ``streetcrop``
module (plus a few methods that carry the per-pixel and per-image work)
and rebinds each wrapper in every module namespace that holds the
original, so ``read_grid`` is timed whether ``cli``, ``cropmapper`` or
``rasterstack`` calls it. ``uninstall()`` puts the originals back.

Calls of ordinary functions become spans: name, start, end, parent span
and run id, kept in memory until :meth:`Tracer.dump`. Functions called
once per pixel, image or SGD step are *hot*: they are aggregated as
calls / seconds / self seconds per (name, kind, stage) instead of one
span each, so tracing stays affordable. Self time is duration minus the
time of child calls (spans and hot calls alike).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict

from workloads import ALL_STAGES

MODULES = (
    "cli",
    "synthworld",
    "geocore",
    "imagery",
    "imageclassifier",
    "neuralnet",
    "rasterstack",
    "refgen",
    "cropmapper",
    "metrics",
)

# (module, class, method) pairs wrapped besides module-level functions
METHODS = (
    ("imagery", "FixtureIndex", "__init__"),
    ("imagery", "FixtureIndex", "fetch"),
    ("rasterstack", "SceneStack", "from_manifests"),
    ("rasterstack", "SceneStack", "stack_at_cell"),
)

# called once per pixel, image, point or SGD step: aggregated, not spans
HOT = {
    "geocore.offset_point",
    "geocore.geo_distance",
    "geocore.shift_to_parcel",
    "imagery.decode_image",
    "imagery.encode_image",
    "imagery.fixture_filename",
    "imagery.write_fixture",
    "imagery.build_street_request",
    "imagery.FixtureIndex.fetch",
    "synthworld.phenology_value",
    "synthworld.render_street_image",
    "synthworld.facing_class",
    "rasterstack.sample_pixel",
    "rasterstack.SceneStack.stack_at_cell",
    "neuralnet.loss_and_gradients",
    "neuralnet.forward",
    "neuralnet.predict",
    "neuralnet.predict_batch",
    "neuralnet.accuracy",
    "metrics.percent",
}


def net_kind(net) -> str:
    """'pixel' for (1, T, F) temporal stacks, 'image' for everything else."""
    shape = tuple(net.spec.input_shape)
    return "pixel" if len(shape) == 3 and shape[0] == 1 else "image"


def _kind_of(name, args):
    """Extra attribution key for calls whose cost depends on the network."""
    if name in ("neuralnet.loss_and_gradients", "neuralnet.accuracy",
                "neuralnet.predict_batch", "neuralnet.train"):
        return net_kind(args[0])
    return ""


class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self):
        self.spans: list[dict] = []
        # (run, name, kind, stage) -> [calls, seconds, self seconds, errors]
        self.hot: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        # run -> counts read from call arguments and results
        self.facts: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        self.run_id = ""  # spans of one set-up or pass share it
        self.stage = ""
        self._stack: list[list] = []  # [span_id, child_seconds]
        self._next_id = 0
        self._patched: list[tuple] = []
        self.decoded: dict[str, set] = defaultdict(set)  # run -> image payload hashes

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _wrap(self, name, fn):
        hot = name in HOT
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            if name == "cli.run_command":
                tracer.stage = str(args[0][0]) if args and args[0] else ""
            ok = True
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                ok = False
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                self_s = duration - frame[1]
                kind = _kind_of(name, args)
                if hot:
                    agg = tracer.hot[(tracer.run_id, name, kind, tracer.stage)]
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += self_s
                    agg[3] += 0 if ok else 1
                else:
                    tracer.spans.append({
                        "id": span_id, "name": name, "kind": kind, "stage": tracer.stage,
                        "start": start, "end": end, "self": self_s,
                        "parent": parent, "run": tracer.run_id, "ok": ok,
                    })
                tracer._observe(name, kind, args, result, ok)

        return wrapper

    def _observe(self, name, kind, args, result, ok):
        """Counts that need the call's arguments or result."""
        f = self.facts[self.run_id]
        if not ok:
            return
        if name == "cli.run_command":
            f["stage_failures"] += int(result != 0)
        elif name == "geocore.make_sampling_grid":
            f["grid_points"] += len(result)
        elif name == "imagery.decode_image":
            self.decoded[self.run_id].add(hash(args[0]))
        elif name == "imageclassifier.qc_filter":
            f["qc_kept"] += len(result[0])
            f["qc_total"] += len(result[0]) + len(result[1])
        elif name == "rasterstack.read_grid":
            f["read_grid_bytes"] += os.path.getsize(args[0])
        elif name == "rasterstack.write_grid":
            f["write_grid_bytes"] += os.path.getsize(args[1])
        elif name == "rasterstack.SceneStack.stack_at_cell":
            mask = result[1]
            f["series"] += mask.shape[1]
            f["series_filled"] += int((~mask.all(axis=0)).sum())
        elif name == "neuralnet.predict_batch":
            f["predicted_samples"] += args[1].shape[0]
        elif name == "refgen.generate_reference_points":
            f["ref_points"] += len(result.points)
        elif name == "refgen.sample_class_points":
            f["ref_points"] += len(result)
        elif name == "refgen.validate_reference_points":
            f["validated_points"] += len(args[0])
        elif name == "cropmapper.forward_select":
            f["models_trained"] += result.models_trained
            f["dropped_unusable"] += result.dropped_unusable
        elif name == "cropmapper.train_pixel_classifier":
            f["dropped_unusable"] += result.dropped_unusable
        elif name == "cropmapper.predict_crop_map":
            grid = result.grid
            f["mapped_px"] += int((grid.values != grid.nodata).sum())

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def install(self):
        import streetcrop

        modules = {m: getattr(__import__(f"streetcrop.{m}"), m) for m in MODULES}
        # public functions defined in each module, keyed by identity
        wrappers: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        # rebind in every namespace that holds the original object
        for mod in [*modules.values(), streetcrop]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            raw = cls.__dict__[meth]
            name = f"{short}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            self._patched.append((cls, meth, raw))
            setattr(cls, meth, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------

    def span_table(self, runs):
        """Per span name, hot calls included: calls, total and self seconds."""
        table: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            if s["run"] in runs:
                row = table[s["name"]]
                row[0] += 1
                row[1] += s["end"] - s["start"]
                row[2] += s["self"]
        for (run, name, _, _), (calls, total, self_s, _) in self.hot.items():
            if run in runs:
                row = table[name]
                row[0] += calls
                row[1] += total
                row[2] += self_s
        return table

    def dump(self, path):
        """Write every span and hot aggregate as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            for (run, name, kind, stage), (calls, total, self_s, errors) in sorted(
                self.hot.items()
            ):
                fh.write(json.dumps({
                    "name": name, "kind": kind, "stage": stage, "run": run, "aggregate": True,
                    "calls": calls, "total": total, "self": self_s, "errors": errors,
                }) + "\n")


def _ratio(a, b):
    return a / b if b else 0.0


class _Totals:
    """Sums over spans and hot aggregates of a set of runs."""

    def __init__(self, tracer: Tracer, runs):
        runs = set(runs)
        self.calls: dict[tuple, float] = defaultdict(float)
        self.seconds: dict[tuple, float] = defaultdict(float)
        self.errors: dict[tuple, float] = defaultdict(float)
        self.module_self: dict[str, float] = defaultdict(float)
        self.stage_seconds: dict[str, float] = defaultdict(float)
        self.entries = 0
        for s in tracer.spans:
            if s["run"] not in runs:
                continue
            self._add(s["name"], s["kind"], s["stage"], 1, s["end"] - s["start"],
                      s["self"], 0 if s["ok"] else 1)
            if s["name"] == "cli.run_command":
                self.stage_seconds[s["stage"]] += s["end"] - s["start"]
        for (run, name, kind, stage), (calls, total, self_s, errors) in tracer.hot.items():
            if run in runs:
                self._add(name, kind, stage, calls, total, self_s, errors)
        self.facts: dict[str, float] = defaultdict(float)
        for run in runs:
            for key, value in tracer.facts.get(run, {}).items():
                self.facts[key] += value
        self.facts["unique_images"] = len(set().union(*(tracer.decoded[r] for r in runs)))

    def _add(self, name, kind, stage, calls, total, self_s, errors):
        for key in ((name, None, None), (name, kind, None), (name, None, stage)):
            self.calls[key] += calls
            self.seconds[key] += total
            self.errors[key] += errors
        self.module_self[name.split(".", 1)[0]] += self_s
        self.entries += calls

    def n(self, name, kind=None, stage=None):
        return self.calls[(name, kind, stage)]

    def s(self, *names, kind=None):
        return sum(self.seconds[(name, kind, None)] for name in names)

    def err(self, name):
        return self.errors[(name, None, None)]


def layer_metrics(tracer: Tracer, runs) -> dict[str, float]:
    """Per-module metrics over the given runs (set-up plus one timed pass)."""
    t = _Totals(tracer, runs)
    f = t.facts
    m: dict[str, float] = {}
    for stage in ALL_STAGES:
        m[f"cli.{stage.replace('-', '_')}_s"] = t.stage_seconds[stage]
    m["cli.stage_failures"] = f["stage_failures"]

    m["synthworld.generate_world_s"] = t.s("synthworld.generate_world")
    m["synthworld.synthesize_scenes_s"] = t.s("synthworld.synthesize_scenes")
    m["synthworld.training_catalog_s"] = t.s("synthworld.build_training_catalog")
    m["synthworld.campaign_fixtures_s"] = t.s("synthworld.build_campaign_fixtures")
    m["synthworld.images_rendered"] = t.n("synthworld.render_street_image")

    m["geocore.sampling_grid_s"] = t.s("geocore.make_sampling_grid")
    m["geocore.grid_points"] = f["grid_points"]

    fetches = t.n("imagery.FixtureIndex.fetch")
    decodes = t.n("imagery.decode_image")
    m["imagery.fixture_index_s"] = t.s("imagery.FixtureIndex.__init__")
    m["imagery.fetch_requests"] = fetches
    m["imagery.fetch_hit_ratio"] = _ratio(fetches - t.err("imagery.FixtureIndex.fetch"), fetches)
    m["imagery.decode_calls"] = decodes
    m["imagery.decode_s"] = t.s("imagery.decode_image")
    m["imagery.decodes_per_image"] = _ratio(decodes, f["unique_images"])

    m["imageclassifier.catalog_read_s"] = t.s(
        "imageclassifier.read_catalog", "imageclassifier.read_record_catalog"
    )
    m["imageclassifier.catalog_write_s"] = t.s(
        "imageclassifier.write_catalog", "imageclassifier.write_record_catalog"
    )
    m["imageclassifier.train_s"] = t.s("imageclassifier.train_image_classifier")
    m["imageclassifier.classify_s"] = t.s("imageclassifier.classify_images")
    m["imageclassifier.qc_kept_ratio"] = _ratio(f["qc_kept"], f["qc_total"])

    for kind in ("image", "pixel"):
        train_s = t.s("neuralnet.train", kind=kind)
        steps = t.n("neuralnet.loss_and_gradients", kind=kind)
        step_s = t.s("neuralnet.loss_and_gradients", kind=kind)
        val_s = t.s("neuralnet.accuracy", kind=kind)
        m[f"neuralnet.{kind}.train_s"] = train_s
        m[f"neuralnet.{kind}.train_steps"] = steps
        m[f"neuralnet.{kind}.step_ms"] = 1e3 * _ratio(step_s, steps)
        m[f"neuralnet.{kind}.update_ms"] = 1e3 * _ratio(train_s - step_s - val_s, steps)
    m["neuralnet.predict_us_per_sample"] = 1e6 * _ratio(
        t.s("neuralnet.predict_batch"), f["predicted_samples"]
    )
    m["neuralnet.serialize_s"] = t.s("neuralnet.serialize_model")
    m["neuralnet.deserialize_s"] = t.s("neuralnet.deserialize_model")

    cells = t.n("rasterstack.SceneStack.stack_at_cell")
    m["rasterstack.read_grid_calls"] = t.n("rasterstack.read_grid")
    m["rasterstack.read_grid_s"] = t.s("rasterstack.read_grid")
    m["rasterstack.read_grid_mb"] = f["read_grid_bytes"] / 1e6
    m["rasterstack.write_grid_calls"] = t.n("rasterstack.write_grid")
    m["rasterstack.write_grid_s"] = t.s("rasterstack.write_grid")
    m["rasterstack.write_grid_mb"] = f["write_grid_bytes"] / 1e6
    m["rasterstack.scene_stack_loads"] = t.n("rasterstack.SceneStack.from_manifests")
    m["rasterstack.scene_stack_load_s"] = t.s("rasterstack.SceneStack.from_manifests")
    m["rasterstack.stack_at_cell_calls"] = cells
    m["rasterstack.gapfill_us_per_px"] = 1e6 * _ratio(
        t.s("rasterstack.SceneStack.stack_at_cell"), cells
    )
    m["rasterstack.interp_share"] = _ratio(f["series_filled"], f["series"])
    m["rasterstack.unusable_px"] = t.err("rasterstack.SceneStack.stack_at_cell")

    m["refgen.generate_s"] = t.s("refgen.generate_reference_points")
    m["refgen.points"] = f["ref_points"]
    m["refgen.validate_s"] = t.s("refgen.validate_reference_points")
    m["refgen.samples_per_point"] = _ratio(
        t.n("rasterstack.sample_pixel", stage="validate-refs"), f["validated_points"]
    )

    select_s = t.s("cropmapper.forward_select")
    map_s = t.s("cropmapper.predict_crop_map")
    m["cropmapper.forward_select_s"] = select_s
    m["cropmapper.models_trained"] = f["models_trained"]
    m["cropmapper.s_per_model"] = _ratio(select_s, f["models_trained"])
    m["cropmapper.train_pixel_s"] = t.s("cropmapper.train_pixel_classifier")
    m["cropmapper.predict_map_s"] = map_s
    m["cropmapper.map_us_per_px"] = 1e6 * _ratio(map_s, f["mapped_px"])
    m["cropmapper.mapped_px"] = f["mapped_px"]
    m["cropmapper.evaluate_s"] = t.s("cropmapper.evaluate_crop_map")
    m["cropmapper.dropped_unusable"] = f["dropped_unusable"]

    m["metrics.agreement_s"] = t.s("metrics.agreement_report")

    for module in MODULES:
        m[f"{module}.self_s"] = t.module_self[module]
    m["trace.calls"] = t.entries
    return m
