"""Batch command-line front end.

Every run prints one JSON object to stdout of the form
``{"manifest": ..., "result": ...}`` and a short human summary to stderr.
The manifest records the command, input digests, configuration, seed, library
version and wall time; the result object is a pure function of the manifest
minus the wall time, so re-runs with the same inputs and seed are
byte-identical on the result.

Exit codes: 0 success, 2 input validation failure, 3 budget or cap exhaustion
(with partial diagnostics in the JSON error payload).
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

from . import __version__
from .measures import MeasureError, SupportCapExceeded, load_measure, measure_to_dict
from .information import info_report
from .transport import dual_gap, transport_distance
from .concentration import RefutationBudget, TParams, refute_T
from .decompose import (
    BudgetExhausted,
    CarveError,
    PipelineConfig,
    mixture_decomposition,
    partition_decomposition,
)
from . import processes as proc


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _emit(manifest: dict, result: dict, summary: str, started: float) -> int:
    manifest["wall_time_s"] = round(time.monotonic() - started, 6)
    print(json.dumps({"manifest": manifest, "result": result},
                     sort_keys=True, separators=(",", ":")))
    print(summary, file=sys.stderr)
    return 0


def _parse_constants(text: str) -> dict:
    out = {}
    if not text:
        return out
    mapping = {"c": "c", "cB": "c_B"}
    for item in text.split(","):
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in mapping:
            raise MeasureError(f"unknown constant {key!r} (use c=..,cB=..)")
        try:
            out[mapping[key]] = float(value)
        except ValueError:
            raise MeasureError(
                f"constant {key!r} needs a number, got {value.strip()!r}") from None
    return out


def _pipeline_config(args) -> PipelineConfig:
    extra = _parse_constants(getattr(args, "constants", "") or "")
    return PipelineConfig(
        epsilon=args.epsilon, r=args.r, seed=args.seed,
        max_iters=args.max_iters, **extra)


#: the ``process`` flags besides --n that each op reads; any other flag must
#: keep its default, or the run exits 2.  ``block`` reads --seed only with
#: --empirical-length: the exact window law takes no seed.  ``partition``
#: draws no random numbers, yet accepts --seed, which benchmark jobs pass
PROCESS_OP_FLAGS = {
    "block": {"empirical_length", "seed"},
    "tc-profile": {"block_size"},
    "rel-dbar": {"theta"},
    "gap": {"k"},
    "partition": {"block_size", "seed", "epsilon", "r", "constants"},
}


CONSTANTS_HELP = ("existential constants, default c=50,cB=10: c is only "
                  "reported against; cB scales a carve's heavy-atom "
                  "threshold exponent 161 cB / delta^2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamconc",
        description="Measure concentration toolkit for Hamming cubes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="information functionals of a measure")
    p.add_argument("measure")

    p = sub.add_parser("transport", help="transportation distance and plan")
    p.add_argument("measure")
    p.add_argument("other")
    p.add_argument("--approx", action="store_true",
                   help="use the entropically regularized backend")
    p.add_argument("--reg", type=float, default=5e-3)

    p = sub.add_parser(
        "certify", help="budgeted transportation-inequality refutation",
        description="Try to refute T(kappa, r) for a measure.  Two a-priori "
        "bounds on the support diameter diam prove the inequality before any "
        "search (status \"holds\"): r >= diam (bound \"diameter\") and "
        "Hoeffding's lemma, kappa diam^2 / 8 <= r (bound \"hoeffding\").  "
        "Otherwise the status is \"refuted\", with a re-verified witness, "
        "or the budget-relative \"not_refuted_within_budget\".")
    p.add_argument("measure")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--budget-subsets", type=int, default=4096)
    p.add_argument("--budget-restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)

    for name, helptext in (("decompose-b", "mixture decomposition"),
                           ("partition-c", "support partition")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("measure")
        p.add_argument("--epsilon", type=float, default=0.3)
        p.add_argument("--r", type=float, default=0.3)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-iters", type=int, default=64)
        p.add_argument("--constants", default="", help=CONSTANTS_HELP)

    p = sub.add_parser("process", help="block statistics of a process spec")
    p.add_argument("spec")
    p.add_argument("--op", required=True,
                   choices=["block", "tc-profile", "rel-dbar", "gap", "partition"])
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--theta", help="second joint spec for rel-dbar")
    p.add_argument("--block-size", type=int, default=1)
    p.add_argument("--empirical-length", type=int, default=0,
                   help="if > 0, use a simulated path of this length")
    p.add_argument("--epsilon", type=float, default=0.3)
    p.add_argument("--r", type=float, default=0.3)
    p.add_argument("--max-iters", type=int, default=64)
    p.add_argument("--constants", default="", help=CONSTANTS_HELP)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses, built on its first call rather than at import.
    Parsing keeps no state in the parser: each call fills a new namespace."""
    return build_parser()


def run(argv: list[str]) -> int:
    started = time.monotonic()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0

    manifest = {
        "command": [args.command] + [a for a in argv if a != args.command],
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "config": {},
        "input_digest": {},
    }

    try:
        if args.command == "info":
            mu = load_measure(args.measure)
            manifest["input_digest"][args.measure] = _digest(args.measure)
            report = info_report(mu)
            return _emit(manifest, report.to_dict(),
                         f"entropy={report.entropy:.6f} tc={report.tc:.6f} "
                         f"dtc={report.dtc:.6f}", started)

        if args.command == "transport":
            mu = load_measure(args.measure)
            nu = load_measure(args.other)
            for path in (args.measure, args.other):
                manifest["input_digest"][path] = _digest(path)
            if not args.approx and args.reg != _parser().parse_args(
                    ["transport", "--", args.measure, args.other]).reg:
                raise MeasureError("exact transport does not read --reg")
            manifest["config"] = {"approx": args.approx, "reg": args.reg}
            method = "sinkhorn" if args.approx else "exact"
            cost, plan = transport_distance(mu, nu, method=method, reg=args.reg)
            result = {
                "cost": cost,
                "exact": plan.exact,
                "bias_bound": plan.bias_bound,
                "plan": [[list(x), list(y), m]
                         for (x, y), m in sorted(plan.plan.items())],
            }
            if plan.exact:
                cert, gap = dual_gap(plan)
                result["dual_gap"] = gap
                result["potential"] = [[list(w), v] for w, v in
                                       sorted(cert.potential.items())]
            return _emit(manifest, result,
                         f"cost={cost:.9f} exact={plan.exact}", started)

        if args.command == "certify":
            mu = load_measure(args.measure)
            manifest["input_digest"][args.measure] = _digest(args.measure)
            params = TParams(args.kappa, args.r)
            manifest["config"] = {"kappa": args.kappa, "r": args.r,
                                  "budget_subsets": args.budget_subsets,
                                  "budget_restarts": args.budget_restarts}
            budget = RefutationBudget(max_subsets=args.budget_subsets,
                                      restarts=args.budget_restarts,
                                      seed=args.seed)
            res = refute_T(mu, params, budget)
            return _emit(manifest, res.to_dict(), f"status={res.status}", started)

        if args.command in ("decompose-b", "partition-c"):
            mu = load_measure(args.measure)
            manifest["input_digest"][args.measure] = _digest(args.measure)
            if args.command == "partition-c" and args.max_iters != _parser().parse_args(
                    ["partition-c", "--", args.measure]).max_iters:
                raise MeasureError("partition-c does not read --max-iters")
            cfg = _pipeline_config(args)
            manifest["config"] = cfg.to_dict()
            fn = (mixture_decomposition if args.command == "decompose-b"
                  else partition_decomposition)
            res = fn(mu, cfg)
            summary = (f"kind={res.kind} m={len(res.weights)} "
                       f"bad_mass={res.bad_mass:.6f} truncated={res.truncated}")
            return _emit(manifest, res.to_dict(), summary, started)

        if args.command == "process":
            defaults = _parser().parse_args(
                ["process", "--op", args.op, "--", args.spec])
            exact_block = args.op == "block" and args.empirical_length <= 0
            read = PROCESS_OP_FLAGS[args.op] - ({"seed"} if exact_block else set())
            for name in sorted(vars(args).keys() - read - {"n"}):
                if getattr(args, name) != getattr(defaults, name):
                    flag = "--" + name.replace("_", "-")
                    raise MeasureError(f"--op {args.op} does not read {flag}")
            spec = proc.load_spec(args.spec)
            manifest["input_digest"][args.spec] = _digest(args.spec)
            manifest["config"] = {"op": args.op, "n": args.n, "k": args.k,
                                  "block_size": args.block_size}
            if args.op == "block":
                if args.empirical_length > 0:
                    mu = proc.empirical_block_measure(
                        spec, args.n, args.empirical_length, args.seed)
                else:
                    mu = proc.exact_block_measure(spec, args.n)
                return _emit(manifest, measure_to_dict(mu),
                             f"support={len(mu)}", started)
            if args.op == "tc-profile":
                prof = proc.tc_profile(spec, args.n, block_size=args.block_size)
                return _emit(manifest, {"tc_profile": prof},
                             f"profile up to n={args.n}", started)
            if args.op == "rel-dbar":
                if not args.theta:
                    raise MeasureError("rel-dbar needs --theta")
                theta = proc.load_spec(args.theta)
                manifest["input_digest"][args.theta] = _digest(args.theta)
                if not isinstance(spec, proc.JointSpec) or \
                        not isinstance(theta, proc.JointSpec):
                    raise MeasureError("rel-dbar needs joint specs")
                value = proc.relative_dbar_estimate(spec, theta, args.n)
                return _emit(manifest, {"n": args.n, "relative_dbar": value},
                             f"rel_dbar={value:.6f}", started)
            if args.op == "gap":
                if not isinstance(spec, proc.JointSpec):
                    raise MeasureError("gap needs a joint spec")
                value = proc.block_independence_gap(spec, args.n, args.k)
                return _emit(manifest, {"n": args.n, "k": args.k, "gap": value},
                             f"gap={value:.6f}", started)
            if args.op == "partition":
                if not isinstance(spec, proc.JointSpec):
                    raise MeasureError("partition needs a joint spec")
                cfg = _pipeline_config(args)
                manifest["config"].update(cfg.to_dict())
                report = proc.conditional_partition(
                    spec, args.n, cfg, block_size=args.block_size)
                result = {
                    "good_mass": report.good_mass,
                    "delta": report.delta,
                    "good_strings": [list(b) for b in report.good_strings],
                    "tc_by_string": [[list(b), tc] for b, tc in
                                     sorted(report.tc_by_string.items())],
                    "partitions": {
                        ",".join(map(str, b)): res.to_dict()
                        for b, res in sorted(report.partitions.items())},
                    "labels": {
                        ",".join(map(str, b)): [[list(w), code]
                                                for w, code in sorted(lab.items())]
                        for b, lab in sorted(report.labels.items())},
                }
                return _emit(manifest, result,
                             f"good_mass={report.good_mass:.6f} "
                             f"strings={len(report.good_strings)}", started)

        raise MeasureError(f"unknown command {args.command!r}")

    except (SupportCapExceeded, BudgetExhausted, CarveError) as exc:
        print(json.dumps({"manifest": manifest,
                          "error": {"type": type(exc).__name__,
                                    "message": str(exc)}},
                         sort_keys=True, separators=(",", ":")))
        print(f"budget/cap exhausted: {exc}", file=sys.stderr)
        return 3
    except MeasureError as exc:
        print(json.dumps({"manifest": manifest,
                          "error": {"type": "validation",
                                    "message": str(exc)}},
                         sort_keys=True, separators=(",", ":")))
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(json.dumps({"error": {"type": "validation",
                                    "message": str(exc)}},
                         sort_keys=True, separators=(",", ":")))
        print(f"missing file: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
