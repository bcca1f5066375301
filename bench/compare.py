"""Diff two benchmark result sets, workload by workload.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files ``bench/run.py`` writes
(``.bench_out/results`` by default, or ``--results DIR``). For every
workload the report gives, as median and quartiles of each side:

1. the end-to-end metrics of the untraced runs, against the bounds in
   ``BENCHMARK.json``: a metric worse by more than its bound is a
   regression, and one whose base spread exceeds its bound is
   unresolved;
2. the wall time of every CLI stage, from the untraced passes;
3. every per-layer metric of the traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path):
    """workload -> trace flag -> list of result dicts."""
    out: dict[str, dict[int, list]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        out[result["workload"]][result["trace"]].append(result)
    return out


def summary(values):
    values = sorted(values)
    if not values:
        return None
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def _fmt(s):
    return "-" if s is None else f"{s[1]:.5g} [{s[0]:.5g}, {s[2]:.5g}]"


def _delta(base, new):
    if base is None or new is None or base[1] == 0:
        return None
    return (new[1] - base[1]) / abs(base[1])


def stage_times(results):
    """stage -> per-run median seconds over untraced passes."""
    out = defaultdict(list)
    for r in results:
        per_stage = defaultdict(list)
        for p in r["passes"]:
            if not p["traced"]:
                for stage, s in p["stages"].items():
                    per_stage[stage].append(s)
        for stage, s in r["setup"]["stages"].items():
            per_stage["setup:" + stage].append(s)
        for stage, values in per_stage.items():
            out[stage].append(statistics.median(values))
    return out


def metric_values(results):
    out = defaultdict(list)
    for r in results:
        for name, m in r["metrics"].items():
            out[name].append(m["value"])
    return out


def compare(base_dir: Path, new_dir: Path, bench: dict) -> tuple[list[str], bool]:
    base, new = load(base_dir), load(new_dir)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    lines: list[str] = []
    regressed = False
    for workload in sorted(set(base) | set(new)):
        lines.append(f"== {workload}")
        b0, n0 = base[workload][0], new[workload][0]
        lines.append(f"-- end to end ({len(b0)} base runs, {len(n0)} new runs)")
        bv, nv = metric_values(b0), metric_values(n0)
        for name, m in spec.items():
            bs, ns = summary(bv.get(name, [])), summary(nv.get(name, []))
            d = _delta(bs, ns)
            verdict = "missing"
            if d is not None:
                worse = d if m["better"] == "lower" else -d
                base_spread = (bs[2] - bs[0]) / abs(bs[1])
                if worse > m["bound"]:
                    verdict = "REGRESSION"
                    regressed = True
                elif base_spread > m["bound"]:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
            dtxt = "-" if d is None else f"{100 * d:+.2f}%"
            lines.append(
                f"{name:<22} {m['unit']:<6} base {_fmt(bs):<34} new {_fmt(ns):<34} "
                f"{dtxt:>9} bound {100 * m['bound']:.0f}% {verdict}"
            )
        lines.append("-- stages, seconds (median of untraced passes per run)")
        bst, nst = stage_times(b0), stage_times(n0)
        for stage in sorted(set(bst) | set(nst)):
            bs, ns = summary(bst.get(stage, [])), summary(nst.get(stage, []))
            d = _delta(bs, ns)
            dtxt = "-" if d is None else f"{100 * d:+.2f}%"
            lines.append(f"{stage:<30} base {_fmt(bs):<34} new {_fmt(ns):<34} {dtxt:>9}")
        b1, n1 = base[workload][1], new[workload][1]
        lines.append(f"-- layers ({len(b1)} base traced runs, {len(n1)} new traced runs)")
        bl, nl = metric_values(b1), metric_values(n1)
        for name in sorted(set(bl) | set(nl)):
            bs, ns = summary(bl.get(name, [])), summary(nl.get(name, []))
            d = _delta(bs, ns)
            dtxt = "-" if d is None else f"{100 * d:+.2f}%"
            lines.append(f"{name:<45} base {_fmt(bs):<34} new {_fmt(ns):<34} {dtxt:>9}")
    return lines, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = json.loads(args.benchmark.read_text())
    lines, regressed = compare(args.base, args.new, bench)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
