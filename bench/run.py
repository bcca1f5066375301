"""streetcrop benchmark: one workload of the CLI chain, timed and checked.

    python3 bench/run.py --workload demo-e2e --seed 1 --seconds 24 --trace 0

Run from the root of a checkout. The workload's run config is written
from ``--seed``; every stage goes through ``streetcrop.cli.run_command``
in this process. After the set-up stages, the timed stages repeat for
``--seconds`` seconds and each pass's outputs are checked: every stage
exits 0, the map meets acceptance criterion 9's gates (overall accuracy
>= 0.90, every class area within 10% of truth) and the output hashes
repeat across passes.

``--trace 0`` prints every end-to-end metric. ``--trace 1`` alternates
untraced and traced passes, measures the engine's layers and
``gradient_check``, and prints the per-layer metrics instead. The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. Full results (stage times, quality intervals, output
hashes, machine facts) go to ``.bench_out/results``; traced spans go to
``.bench_out/traces``. Nothing is written under the pipeline's ``--out``
besides what the CLI writes itself. ``bench/compare.py`` diffs two
result directories.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported anywhere in this process.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
IMPORT_PROBES = 3
MIN_OA = 0.90  # acceptance criterion 9
MAX_AREA_ERR = 0.10  # acceptance criterion 9
HASHED = ("crop_map.grid", "pixel_model.rtnn", "image_model.rtnn")


def _import_package():
    """Import streetcrop from this checkout's ``src``, or exit 2."""
    if not (SRC / "streetcrop" / "cli.py").is_file():
        print(f"error: no streetcrop sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import streetcrop.cli

    return streetcrop.cli


# --------------------------------------------------------------------------
# Units and directions (BENCHMARK.json lists the same)
# --------------------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "map_oa": "ratio",
    "image_test_oa": "ratio",
    "selection_val_acc": "ratio",
    "ref_agreement_min": "ratio",
    "area_acc_min": "ratio",
    "ok_ops_share": "ratio",
}


def layer_unit(name: str) -> str:
    for suffix, unit in (
        ("_computed", "GFLOP" if "gflop" in name else "MB"),
        ("_us_per_px", "us/px"),
        ("_us_per_sample", "us/sample"),
        ("_ms", "ms"),
        ("_s", "s"),
        ("_mb", "MB"),
        ("_ratio", "ratio"),
        ("_share", "ratio"),
        ("_per_model", "s"),
        ("_per_point", "count/point"),
        ("_per_image", "count/image"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


# --------------------------------------------------------------------------
# Facts about the machine and the stats helpers
# --------------------------------------------------------------------------


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas_threads": int(BLAS_THREADS),
        "platform": platform.platform(),
    }


def quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def accuracy_interval(correct: int, n: int):
    """Accuracy with a 95% normal-approximation interval (Olofsson et al. 2014)."""
    p = correct / n
    half = 1.96 * math.sqrt(p * (1.0 - p) / max(n - 1, 1))
    return {"value": p, "n": n, "ci95": [max(0.0, p - half), min(1.0, p + half)]}


# --------------------------------------------------------------------------
# Reading the CLI's outputs
# --------------------------------------------------------------------------


def _oa_counts(path: Path):
    """(correct, total) from the ``OA = x (a/b)`` line of a confusion text."""
    for line in path.read_text().splitlines():
        if line.startswith("OA = "):
            a, b = line.rsplit("(", 1)[1].rstrip(")").split("/")
            return int(a), int(b)
    raise ValueError(f"no OA line in {path}")


def read_quality(out: Path) -> dict:
    q = {}
    q["map_oa"] = accuracy_interval(*_oa_counts(out / "evaluation.txt"))
    q["image_test_oa"] = accuracy_interval(*_oa_counts(out / "image_test_confusion.txt"))
    # the selection's validation set is the same stratified 80/20 split of
    # the same reference points that train-mapper holds out
    _, n_val = _oa_counts(out / "pixel_confusion.txt")
    val_acc = next(
        float(line.split(":")[1].strip().rstrip("%")) / 100.0
        for line in (out / "selection.txt").read_text().splitlines()
        if line.startswith("validation accuracy:")
    )
    q["selection_val_acc"] = accuracy_interval(round(val_acc * n_val), n_val)
    q["selection_val_acc"]["value"] = val_acc
    rows = (out / "refs_agreement.csv").read_text().splitlines()[1:]
    q["ref_agreement_min"] = min(
        float(r.split(",")[3]) for r in rows if not r.startswith("overall,")
    )
    errors = {}
    for row in (out / "area_counts.csv").read_text().splitlines()[1:]:
        name, mapped, truth = row.split(",")
        if int(truth) > 0:
            errors[name] = abs(int(mapped) - int(truth)) / int(truth)
    q["area_err_max"] = max(errors.values())
    q["area_err"] = errors
    return q


def file_hashes(out: Path) -> dict:
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in HASHED
        if (out / name).exists()
    }


# --------------------------------------------------------------------------
# Running stages
# --------------------------------------------------------------------------


class Runner:
    """Runs CLI stages with the workload's config and counts checks."""

    def __init__(self, cli, workload, seed: int, work: Path):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        work.mkdir(parents=True, exist_ok=True)
        self.config = work / "run.cfg"
        self.config.write_text(workload.config_text(seed))

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def stages(self, stages, out: Path) -> dict[str, float]:
        """Run stages in order; returns per-stage seconds."""
        times = {}
        for stage in stages:
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.run_command(
                    [stage, "--config", str(self.config), "--out", str(out)]
                )
            times[stage] = time.perf_counter() - start
            if not self.check(code == 0, f"{stage} exited {code}"):
                print(f"{stage} exited {code}:\n{sink.getvalue()[-2000:]}", file=sys.stderr)
        return times


def import_probe() -> float:
    """Seconds for a fresh interpreter to import the CLI module."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import streetcrop.cli"], env=env, cwd=ROOT, check=True
    )
    return time.perf_counter() - start


# --------------------------------------------------------------------------
# The run
# --------------------------------------------------------------------------


def run(args) -> int:
    cli = _import_package()
    import tracer as tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(cli, workload, args.seed, work)
    tracer = tracing.Tracer() if args.trace else None

    # ---- set-up: cold import, then the set-up stages --------------------
    probes = [import_probe() for _ in range(IMPORT_PROBES)]
    setup_out = work / "setup"
    if tracer:
        tracer.run_id = "setup"
        tracer.install()
    start = time.perf_counter()
    setup_times = runner.stages(workload.setup, setup_out)
    setup_stage_s = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    if runner.failed:
        print("error: set-up failed: " + "; ".join(runner.errors), file=sys.stderr)
        return 1
    setup_s = statistics.median(probes) + setup_stage_s

    # ---- timed passes ----------------------------------------------------
    passes = []
    first_hashes = None
    loop_start = time.perf_counter()
    while True:
        k = len(passes)
        traced = bool(tracer) and k % 2 == 1
        # the previous pass's files go first, so their page-cache memory is
        # reused rather than each pass touching fresh memory
        out = work / f"pass{k}" if workload.fresh_out else setup_out
        if workload.fresh_out:
            shutil.rmtree(work / f"pass{k - 1}", ignore_errors=True)
        if traced:
            tracer.run_id = f"pass{k}"
            tracer.install()
        failed_before = runner.failed
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        times = runner.stages(workload.timed, out)
        wall = time.perf_counter() - start
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        if traced:
            tracer.uninstall()
        record = {
            "wall_s": wall,
            "user_s": ru1.ru_utime - ru0.ru_utime,
            "sys_s": ru1.ru_stime - ru0.ru_stime,
            "traced": traced,
            "stages": times,
        }
        if runner.failed == failed_before:
            q = read_quality(out)
            record["quality"] = q
            runner.check(q["map_oa"]["value"] >= MIN_OA, f"pass {k}: map OA below {MIN_OA}")
            runner.check(
                q["area_err_max"] <= MAX_AREA_ERR, f"pass {k}: area error above {MAX_AREA_ERR}"
            )
            record["hashes"] = file_hashes(out)
            first_hashes = first_hashes or record["hashes"]
            runner.check(
                record["hashes"] == first_hashes and len(first_hashes) == len(HASHED),
                f"pass {k}: output hashes differ from pass 0",
            )
        passes.append(record)
        elapsed = time.perf_counter() - loop_start
        estimate = statistics.median(p["wall_s"] for p in passes)
        min_passes = 2 if tracer else 1
        if len(passes) >= min_passes and elapsed + estimate > args.seconds:
            break

    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    quality = next((p["quality"] for p in reversed(passes) if "quality" in p), None)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "setup": {
            "setup_s": setup_s,
            "import_probes_s": probes,
            "stages_s": setup_stage_s,
            "stages": setup_times,
        },
        "passes": passes,
        "quality": quality,
        "errors": runner.errors,
    }

    metrics: dict[str, float] = {}
    if tracer is None:
        if quality is None:
            print("error: no pass produced outputs", file=sys.stderr)
            return 1
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(untraced),
            "peak_rss_mb": rss_mb,
            "map_oa": quality["map_oa"]["value"],
            "image_test_oa": quality["image_test_oa"]["value"],
            "selection_val_acc": quality["selection_val_acc"]["value"],
            "ref_agreement_min": quality["ref_agreement_min"],
            "area_acc_min": 1.0 - quality["area_err_max"],
            "ok_ops_share": (runner.attempted - runner.failed) / runner.attempted,
        }
    else:
        import engine

        traced_runs = [f"pass{k}" for k, p in enumerate(passes) if p["traced"]]
        per_pass = [tracing.layer_metrics(tracer, ["setup", run_id]) for run_id in traced_runs]
        for name in per_pass[0]:
            metrics[name] = statistics.median(m[name] for m in per_pass)
        traced_walls = [p["wall_s"] for p in passes if p["traced"]]
        overhead = statistics.median(traced_walls) - statistics.median(untraced)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / statistics.median(untraced)
        metrics.update(engine.layer_timings())
        grad, grad_ok = engine.gradient_checks()
        runner.check(grad_ok, "gradient check above criterion 4's 1e-4")
        metrics.update(grad)
        table = tracer.span_table(set(traced_runs) | {"setup"})
        result["span_self_s"] = {
            name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in table.items()
        }
        trace_dir = OUT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_dir / f"{tag}.jsonl")
        result["trace_file"] = str((trace_dir / f"{tag}.jsonl").relative_to(ROOT))

    units = END_TO_END_UNITS if tracer is None else {n: layer_unit(n) for n in metrics}
    result["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
    result["correct"] = runner.failed == 0
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    results_dir = Path(args.results) if args.results else OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps(result, indent=1))
    shutil.rmtree(work, ignore_errors=True)

    report(result, untraced)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result["metrics"],
    }))
    return 0


def report(result, untraced):
    """Human-readable lines ahead of the final JSON line."""
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}")
    lo, mid, hi = quartiles(untraced)
    print(f"passes: {len(result['passes'])} ({len(untraced)} untraced); "
          f"wall_s q1/median/q3 = {lo:.4f}/{mid:.4f}/{hi:.4f}")
    q = result["quality"] or {}
    for name in ("map_oa", "image_test_oa", "selection_val_acc"):
        if name in q:
            iv = q[name]
            print(f"{name} = {iv['value']:.4f} ratio, 95% CI "
                  f"[{iv['ci95'][0]:.4f}, {iv['ci95'][1]:.4f}] (n={iv['n']})")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if "span_self_s" in result:
        top = sorted(result["span_self_s"].items(), key=lambda kv: -kv[1]["self_s"])[:12]
        print("top spans by self time (set-up + traced passes):")
        for name, row in top:
            print(f"  {name:<45} calls {row['calls']:>6}  total {row['total_s']:8.3f} s"
                  f"  self {row['self_s']:8.3f} s")
    for err in result["errors"]:
        print(f"FAILED: {err}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="directory for the full result file")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
