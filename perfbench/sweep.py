"""Repeat benchmark runs over seeds and judge them against BENCHMARK.json.

    python3 perfbench/sweep.py run --workload certify --seeds 1-10 --out a.jsonl
    python3 perfbench/sweep.py spread a.jsonl
    python3 perfbench/sweep.py compare parent.jsonl change.jsonl

``run`` appends one JSON line per run (workload, seed, result digest and the
result line of ``run.py``); ``spread`` prints each end-to-end metric's median
and quartile spread as a share of the median, against a third of its bound
and the bound itself; ``compare`` applies the bounds to two sets of runs
(see ``stats.compare_runs``), one row per workload and metric, and checks
that runs of the same workload and seed produced the same result digest.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(args) -> int:
    bench = spec()
    seconds = args.seconds or bench["run_seconds"]
    status = 0
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        head, result = json.loads(lines[-2]), json.loads(lines[-1])
        row = {"workload": args.workload, "seed": seed, "trace": args.trace,
               "result_digest": head["result_digest"], "result": result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row) + "\n")
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"{args.workload} seed={seed} correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
    return status


def rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, from the untraced rows of a sweep file."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for row in rows(path):
        if row["trace"]:
            continue
        for name, metric in row["result"]["metrics"].items():
            out[row["workload"]][name].append(metric["value"])
    return out


def spread(args) -> int:
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    worst = 0
    for workload, metrics in sorted(load(args.file).items()):
        for name, values in metrics.items():
            rel = stats.relative_spread(values) if len(values) >= 2 else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or rel < bound / 3 else \
                ("  > bound/3" if rel <= bound else "  > BOUND")
            if name != "setup_s" and bound is not None and rel > bound:
                worst = 1
            print(f"{workload:15s} {name:12s} n={len(values):2d} "
                  f"median={statistics.median(values):.6g} spread={rel:.4f} "
                  f"bound={bound}{flag}")
    return worst


def compare(args) -> int:
    specs = spec()["end_to_end"]
    parent, change = load(args.parent), load(args.change)
    status = 0
    digests = {(r["workload"], r["seed"]): r["result_digest"] for r in rows(args.parent)}
    for r in rows(args.change):
        key = (r["workload"], r["seed"])
        if key in digests and digests[key] != r["result_digest"]:
            print(f"{key[0]} seed={key[1]}: result digest differs")
            status = 1
    for workload in sorted(set(parent) & set(change)):
        for row in stats.compare_runs(parent[workload], change[workload], specs):
            if row["verdict"] == "regressed":
                status = 1
            print(f"{workload:15s} {row['metric']:12s} "
                  f"parent={row['parent_median']:.6g} change={row['change_median']:.6g} "
                  f"worse_by={row['worse_by']:+.4f} spread={row['parent_spread']:.4f} "
                  f"bound={row['bound']} {row['verdict']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=0,
                   help="run length; default run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p = sub.add_parser("spread")
    p.add_argument("file")
    p = sub.add_parser("compare")
    p.add_argument("parent")
    p.add_argument("change")
    args = parser.parse_args(argv)
    return {"run": run, "spread": spread, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
