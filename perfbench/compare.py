"""Compare two result sets of the benchmark: parent against change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py --run PARENT_ROOT CHANGE_ROOT --pairs 10 --out DIR

A result set is the file run.py appends to with --results. With --run, the
same run.py measures both checkouts in alternating pairs (pair i uses seed
i on both sides, as digests.json does; odd pairs run the change first) and writes
DIR/parent.jsonl and DIR/change.jsonl before comparing them.

For each workload and metric it prints each side's median and quartiles,
the share of pairs the change won (ties count for neither side) and a
verdict against the metric's bound in BENCHMARK.json:
  improved    the change wins at least 9 pairs in 10 and the medians differ
              by more than the parent's quartile spread;
  unresolved  the parent's own spread is wider than the bound and the change
              does not read better on every run;
  worse       the change's median is worse by more than the bound;
  unchanged   otherwise.
Per-layer metrics have no bound and get no verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path: Path) -> dict:
    """(workload, trace) -> seed -> record, last record per seed wins."""
    runs = defaultdict(dict)
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            runs[(rec["workload"], rec["trace"])][rec["seed"]] = rec
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: list[float], change: list[float], won: float, better: str,
            bound: float | None) -> str:
    if bound is None:
        return "-"
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (cm - pm) / pm if pm else 0.0
    all_better = (max(change) < min(parent)) if better == "lower" else (min(change) > max(parent))
    if won >= 0.9 and worse_by < 0 and abs(cm - pm) > p3 - p1:
        return "improved"
    if pm and (p3 - p1) / pm > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "unchanged"


def compare(parent_path: Path, change_path: Path) -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    rules = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"]}
    rules.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':<10} {'metric':<38} {'parent q1/median/q3':>33} "
          f"{'change q1/median/q3':>33} {'pairs':>5} {'won':>5}  verdict")
    for key in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[key]) & set(change[key]))
        if not seeds:
            continue
        p_runs = [parent[key][s] for s in seeds]
        c_runs = [change[key][s] for s in seeds]
        for name in p_runs[0]["metrics"]:
            if name not in rules:
                continue
            better, bound = rules[name]
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(pv, cv))
            won = wins / len(seeds)
            fmt = "{:>10.4g} {:>10.4g} {:>10.4g}"
            print(f"{key[0]:<10} {name:<38} {fmt.format(*quartiles(pv)):>33} "
                  f"{fmt.format(*quartiles(cv)):>33} {len(seeds):>5} {won:>5.2f}  "
                  f"{verdict(pv, cv, won, better, bound)}")
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            changed = sum(r["digest_changed"] or 0 for r in runs)
            print(f"{key[0]:<10} {side}: {failed}/{attempted} commands failed, "
                  f"{changed} report digests differ from digests.json")


def run_pairs(parent_root: Path, change_root: Path, workloads: list[str], pairs: int,
              seconds: float, trace: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    sides = {"parent": parent_root, "change": change_root}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(i), "--seconds", str(seconds),
                     "--trace", str(trace), "--root", str(sides[side]),
                     "--results", str(out / f"{side}.jsonl")],
                    check=True, stdout=subprocess.DEVNULL)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="*", type=Path, help="PARENT.jsonl CHANGE.jsonl")
    ap.add_argument("--run", nargs=2, type=Path, metavar=("PARENT_ROOT", "CHANGE_ROOT"))
    ap.add_argument("--workloads", default="sbc-loop,bulk-sim")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=Path(".bench_work/compare"))
    args = ap.parse_args(argv)
    if args.run:
        seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
        run_pairs(args.run[0].resolve(), args.run[1].resolve(), args.workloads.split(","),
                  args.pairs, seconds, args.trace, args.out)
        files = [args.out / "parent.jsonl", args.out / "change.jsonl"]
    elif len(args.files) == 2:
        files = args.files
    else:
        ap.error("give PARENT.jsonl CHANGE.jsonl, or --run PARENT_ROOT CHANGE_ROOT")
    compare(*files)
    return 0


if __name__ == "__main__":
    sys.exit(main())
