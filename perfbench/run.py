"""Layered benchmark of the ``hamconc`` command line.

Run from the repository root:

    python3 perfbench/run.py --workload mixture --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke          # one small job per workload

One client in one thread calls ``hamconc.cli.run(argv)`` in process, one job
at a time (a closed loop), and cycles over the workload's jobs until
``--seconds`` have passed and at least 2 passes are complete.  Every job's
``result`` is checked against the workload's contract and hashed, and a job
whose result changes between passes counts as failed.

Job times are taken at reference speed.  Right before each job the run times a
fixed piece of reference work shaped like the library's inner loops, and a
job's latency is the median over its repeats of (job time / reference time)
x ``reference.SECONDS``, the reference work's time on an idle 2-vCPU Intel
Xeon VM.  On that VM speed swings by 1.5-2x for seconds to minutes with load
on the sibling vCPU and the host; raw medians of the same seed moved 40%
between runs while the normalized ones moved 2%.  The raw figures are kept
in the record and the provenance line.

With ``--trace 0`` the run prints the end-to-end metrics:

* ``wall_s`` - one pass over the jobs, each job at its latency;
* ``job_p50_s`` / ``job_tail_s`` - median and tail of the job latencies; the
  tail is the highest percentile with at least 10 jobs above it (recorded as
  ``tail_percentile``), so it tracks the heavy inputs;
* ``setup_s`` - import of ``hamconc.cli`` in a fresh interpreter plus
  generating and writing the inputs, median of 7 repeats, each at the
  reference speed that interpreter measured right after its import (the
  import's time did not follow reference times taken in this process);
* ``peak_rss_mb`` - peak resident memory of this process (one per run).

With ``--trace 1`` passes alternate untraced and traced (see ``tracing.py``)
and the run prints per-layer metrics for one pass, each job at the median of
its traced repeats: span self times (raw seconds), counts read at the layer
boundaries, and the tracing overhead as traced over untraced pass time.

Before the result line the run prints its provenance and the sha256 of the
jobs' ``result`` objects; a fuller record (per-job latencies and digests, and
for traced runs the spans) goes to ``.perfbench/`` in the repository root.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 7
#: passes a run always completes, so every job has at least this many repeats
MIN_PASSES = 2

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

IMPORT_PROBE = ("import statistics, sys, time; sys.path[:0] = sys.argv[1:3]; "
                "t = time.perf_counter(); import hamconc.cli; "
                "t = time.perf_counter() - t; import reference; "
                "print(t, statistics.median(reference.work() for _ in range(7)))")

END_TO_END = {"wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: per-layer metric -> (unit, value from the per-pass totals ``t``)
PER_LAYER = {
    "information.dtc_calls": ("count", lambda t: t["dual_total_correlation.calls"]),
    "information.tc_calls": ("count", lambda t: t["total_correlation.calls"]),
    "information.self_s": ("s", lambda t: t["information.self_s"]),
    "information.dtc_ms_per_call": ("ms", lambda t: 1e3 * _ratio(
        t["dual_total_correlation.incl_s"], t["dual_total_correlation.calls"])),
    "measures.self_s": ("s", lambda t: t["measures.self_s"]),
    "measures.reweight_calls": ("count", lambda t: t["reweight.calls"]),
    "transport.solves": ("count", lambda t: t["transport.solves"]),
    "transport.cells": ("count", lambda t: t["transport.cells"]),
    "transport.self_s": ("s", lambda t: t["transport.self_s"]),
    "transport.ms_per_solve": ("ms", lambda t: 1e3 * _ratio(
        t["transport_distance.incl_s"], t["transport.solves"])),
    "transport.s_per_mcell": ("s", lambda t: _ratio(
        t["transport_distance.incl_s"], t["transport.cells"] / 1e6)),
    "concentration.self_s": ("s", lambda t: t["concentration.self_s"]),
    "concentration.refute_calls": ("count", lambda t: t["refute_T.calls"]),
    "concentration.refuted": ("count", lambda t: t["concentration.refuted"]),
    "concentration.subsets_checked": (
        "count", lambda t: t["concentration.subsets_checked"]),
    "concentration.restarts_run": (
        "count", lambda t: t["concentration.restarts_run"]),
    "concentration.gradient_steps": (
        "count", lambda t: t["concentration.gradient_steps"]),
    "concentration.refute_primal_s": ("s", lambda t: t["refute_T.primal_s"]),
    "concentration.refute_dual_s": (
        "s", lambda t: t["refute_T.incl_s"] - t["refute_T.primal_s"]),
    "concentration.lipschitz_project_s": (
        "s", lambda t: t["lipschitz_project.self_s"]),
    "decompose.self_s": ("s", lambda t: t["decompose.self_s"]),
    "decompose.decrement_step_calls": ("count", lambda t: t["decrement_step.calls"]),
    "decompose.decrement_fire_ratio": ("ratio", lambda t: _ratio(
        t["decompose.decrement_fired"], t["decrement_step.calls"])),
    "decompose.decrement_step_s": ("s", lambda t: t["decrement_step.self_s"]),
    "decompose.recursion_rounds": ("count", lambda t: t["decompose.recursion_rounds"]),
    "decompose.carve_calls": ("count", lambda t: t["carve_concentrated_set.calls"]),
    "decompose.carve_small_tc": ("count", lambda t: t["decompose.carve_small_tc"]),
    "decompose.carve_s": ("s", lambda t: t["carve_concentrated_set.self_s"]),
    "decompose.sample_coarsen_s": ("s", lambda t: t["_sample_coarsen_detail.self_s"]
                                   + t["sample_coarsen.self_s"]),
    "processes.self_s": ("s", lambda t: t["processes.self_s"]),
    "processes.block_kernel_s": ("s", lambda t: t["block_kernel.self_s"]),
    "cli.self_s": ("s", lambda t: t["cli.self_s"]),
    "cli.result_bytes": ("bytes", lambda t: t["result_bytes"]),
    "bench.untraced_pass_s": ("s", lambda t: t["untraced_pass_s"]),
    "bench.traced_pass_s": ("s", lambda t: t["traced_pass_s"]),
    "bench.trace_overhead": ("ratio", lambda t: _ratio(
        t["traced_pass_s"], t["untraced_pass_s"])),
}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def import_cli():
    """Import ``hamconc.cli`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "hamconc" / "__init__.py").is_file():
        raise BenchError(f"no hamconc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hamconc.cli
    if Path(hamconc.cli.__file__).resolve().parents[1] != SRC.resolve():
        raise BenchError(f"hamconc imported from {hamconc.cli.__file__}, not {SRC}")
    return hamconc.cli


def time_import() -> tuple[float, float]:
    """Import time of ``hamconc.cli`` in a fresh interpreter, and the median
    reference time in that interpreter right after the import."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                         cwd=ROOT, capture_output=True, text=True, timeout=120,
                         check=True)
    seconds, ref = out.stdout.split()[-2:]
    return float(seconds), float(ref)


def prepare(workload: str, seed: int, directory: Path):
    """Generate the workload's inputs and write them; returns (jobs, argvs)."""
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    jobs = workloads.WORKLOADS[workload](seed)
    return jobs, [job.write(directory, i) for i, job in enumerate(jobs)]


def execute(cli, argv: list[str]) -> tuple[int, float, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.run(argv)   # looked up per call, so a tracer's patch applies
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue()


def judge(job: workloads.Job, code: int, stdout: str) -> tuple[str | None, str | None]:
    """(encoded result, problem) of one execution; problem is None when the
    job exited 0 and its result meets the contract."""
    if code != 0:
        return None, f"exit code {code}"
    try:
        result = json.loads(stdout.splitlines()[-1])["result"]
    except (IndexError, KeyError, ValueError):
        return None, "no result object on stdout"
    encoded = json.dumps(result, sort_keys=True, separators=(",", ":"))
    try:
        return encoded, job.check(job, result)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return encoded, f"contract check raised {exc!r}"


class JobRecord:
    def __init__(self, job: workloads.Job):
        self.job = job
        self.untraced: list[tuple[float, float]] = []   # (job, reference) times
        self.traced: list[tuple[float, float]] = []
        self.summaries: list[dict] = []
        self.digest: str | None = None
        self.result_bytes = 0
        self.problems: list[str] = []

    def note(self, encoded: str | None, problem: str | None) -> bool:
        if encoded is not None:
            digest = hashlib.sha256(encoded.encode()).hexdigest()
            if self.digest is None:
                self.digest, self.result_bytes = digest, len(encoded)
            elif digest != self.digest and problem is None:
                problem = "result differs from an earlier run of the job"
        if problem is not None:
            self.problems.append(problem)
        return problem is None

    def latency(self, traced: bool = False) -> float:
        """Median job time over the repeats, at reference speed."""
        return statistics.median(
            t / ref for t, ref in (self.traced if traced else self.untraced)
        ) * reference.SECONDS

    def raw_latency(self) -> float:
        return statistics.median(t for t, _ in self.untraced)


def measure(cli, jobs, argvs, seconds: float, trace: bool):
    """Cycle over the jobs until ``seconds`` have passed and ``MIN_PASSES``
    passes are complete.  With ``trace``, passes alternate untraced and
    traced."""
    tracer = Tracer() if trace else None
    records = [JobRecord(job) for job in jobs]
    spans = []
    count = len(jobs)
    minimum = count * MIN_PASSES
    done = failed = 0
    gc.collect()
    gc.freeze()   # keep the benchmark's own objects out of the jobs' collections
    deadline = time.perf_counter() + seconds
    while done < minimum or time.perf_counter() < deadline:
        i = done % count
        traced = trace and (done // count) % 2 == 1
        rec = records[i]
        gc.collect()
        ref = reference.work()
        if traced:
            tracer.reset()
            with tracer:
                code, elapsed, stdout = execute(cli, argvs[i])
            rec.traced.append((elapsed, ref))
            rec.summaries.append(tracer.summary())
            spans.append((i, tracer.spans))
            gc.freeze()   # kept spans would slow every later collection
        else:
            code, elapsed, stdout = execute(cli, argvs[i])
            rec.untraced.append((elapsed, ref))
        if not rec.note(*judge(rec.job, code, stdout)):
            failed += 1
        done += 1
    return records, spans, done, failed


def timings(latencies: list[float], pct: int | None) -> dict:
    values = {"wall_s": sum(latencies), "job_p50_s": statistics.median(latencies)}
    if pct is not None:
        values["job_tail_s"] = stats.nearest_rank(latencies, pct)
    return values


def per_layer(records) -> dict:
    totals: dict[str, float] = {}
    for rec in records:
        keys = set().union(*rec.summaries)
        for key in keys:
            totals[key] = totals.get(key, 0.0) + statistics.median(
                s.get(key, 0.0) for s in rec.summaries)
    totals["result_bytes"] = sum(r.result_bytes for r in records)
    totals["untraced_pass_s"] = sum(r.latency() for r in records)
    totals["traced_pass_s"] = sum(r.latency(traced=True) for r in records)
    padded = defaultdict(float, totals)   # 0 for a counter no span touched
    return {name: fn(padded) for name, (unit, fn) in PER_LAYER.items()}


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, jobs, pct, done) -> dict:
    import hamconc
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "hamconc": hamconc.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "job_count": len(jobs), "tail_percentile": pct,
            "executions": done, "passes": round(done / len(jobs), 3)}


def _layer_medians(summaries: list[dict]) -> dict:
    if not summaries:
        return {}
    keys = {k for s in summaries for k in s if k.split(".")[0] in LAYERS}
    return {k.split(".")[0]: statistics.median(s.get(k, 0.0) for s in summaries)
            for k in sorted(keys) if k.endswith(".self_s")}


def write_record(args, prov, digest, metrics, raw, records, spans) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "provenance": prov, "result_digest": digest, "metrics": metrics, "raw": raw,
        "jobs": [{"name": r.job.name,
                  "argv": [a for a in r.job.argv if a != "{input}"],
                  "untraced_s": r.untraced, "traced_s": r.traced,
                  "result_sha256": r.digest, "result_bytes": r.result_bytes,
                  "problems": sorted(set(r.problems)),
                  "layer_self_s": _layer_medians(r.summaries)} for r in records],
    }
    path = OUT_DIR / f"{stem}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans:
        with gzip.open(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json.gz",
                       "wt", encoding="utf-8") as fh:
            json.dump([{"job": i, "spans": s} for i, s in spans], fh)
    return path


def set_up(workload: str, seed: int, inputs: Path):
    """Import in a fresh interpreter plus input generation and writes, timed
    ``SETUP_REPEATS`` times; returns (jobs, argvs, set-up time at reference
    speed, raw set-up time), each the median of the repeats."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        import_s, ref = time_import()
        start = time.perf_counter()
        jobs, argvs = prepare(workload, seed, inputs)
        raw.append(import_s + time.perf_counter() - start)
        scaled.append(raw[-1] / ref * reference.SECONDS)
    return jobs, argvs, statistics.median(scaled), statistics.median(raw)


def run_workload(args) -> dict:
    cli = import_cli()
    inputs = OUT_DIR / f"inputs-{os.getpid()}"
    try:
        jobs, argvs, setup_s, raw_setup = set_up(args.workload, args.seed, inputs)
        for j, job in enumerate(workloads.smoke_jobs(args.workload, args.seed)):
            execute(cli, job.write(inputs, len(jobs) + j))   # warm-up, untimed
        records, spans, done, failed = measure(
            cli, jobs, argvs, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    digest = hashlib.sha256("\n".join(
        r.digest or "" for r in records).encode()).hexdigest()
    pct = stats.tail_percentile(len(records))
    ref_median = statistics.median(
        ref for r in records for _, ref in r.untraced + r.traced)
    raw = {"setup_s": raw_setup, "reference_median_s": ref_median}
    if args.trace:
        metrics, units = per_layer(records), {k: v[0] for k, v in PER_LAYER.items()}
    else:
        metrics = timings([r.latency() for r in records], pct)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
        raw.update(timings([r.raw_latency() for r in records], pct))
    prov = provenance(args, jobs, pct, done)
    path = write_record(args, prov, digest, metrics, raw, records, spans)
    print(json.dumps({"provenance": prov, "result_digest": digest, "raw": raw,
                      "record": str(path.relative_to(ROOT))}))
    for rec in records:
        for problem in sorted(set(rec.problems)):
            print(f"{rec.job.name}: {problem}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": done, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def run_smoke(args) -> dict:
    """One small job per workload, untraced then traced."""
    cli = import_cli()
    inputs = OUT_DIR / f"inputs-{os.getpid()}"
    inputs.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    metrics = {}
    try:
        for workload in workloads.WORKLOADS:
            jobs = workloads.smoke_jobs(workload, args.seed)
            argvs = [job.write(inputs, i) for i, job in enumerate(jobs)]
            records, _, done, bad = measure(cli, jobs, argvs, 0.0, True)
            attempted += done
            failed += bad
            metrics[f"{workload}.job_s"] = {
                "value": sum(r.latency() for r in records),
                "unit": "s"}
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run one small job per workload and exit")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        out = run_smoke(args) if args.smoke else run_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
