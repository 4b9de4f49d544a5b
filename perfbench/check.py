"""Self-checks of the benchmark itself.

    python3 perfbench/check.py repeat --workload warm-explore --seed 3
    python3 perfbench/check.py spread --workload warm-explore --seeds 10

``repeat`` runs one seed twice with tracing on and fails unless both
runs reach identical verdicts (the digest of every request's verdict)
and identical exact counts (``engine.states``, ``acsr.interned_terms``,
``portfolio.analytic_frac``, ``cli.modules_loaded``).

``spread`` runs consecutive seeds untraced and reports, per end-to-end
metric, the median, the quartiles and their distance as a share of the
median, next to the metric's bound in ``BENCHMARK.json``; it fails if a
run fails a request or any spread exceeds its bound.  The spread of the
raw (unscaled) latency metrics is printed beside them, for comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"run.py {workload} seed {seed} exited "
                         f"{proc.returncode}")
    detail = json.loads(lines[-2][len("# detail "):])
    return json.loads(lines[-1]), detail


def spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def repeat(args) -> int:
    runs = [run_once(args.workload, args.seed, args.seconds, 1)
            for _ in range(2)]
    ok = True
    for (result, detail) in runs:
        if not result["correct"] or result["failed"]:
            print(f"failed requests: {detail['problems']}")
            ok = False
    first, second = runs[0][1], runs[1][1]
    for key in ("digest", "exact"):
        same = first[key] == second[key]
        ok = ok and same
        print(f"{key}: {'identical' if same else 'DIFFERENT'} "
              f"{first[key]} / {second[key]}")
    return 0 if ok else 1


def quartile_spread(series) -> float:
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, median, q3 = statistics.quantiles(series, n=4)
    return (q3 - q1) / median if median else 0.0


def spread(args) -> int:
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    values = {name: [] for name in bounds}
    raw = {}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        result, detail = run_once(args.workload, seed, args.seconds, 0)
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: failed requests {detail['problems']}")
            ok = False
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        for name, value in detail["raw"].items():
            raw.setdefault(name, []).append(value)
        print(f"seed {seed}: " + " ".join(
            f"{n}={result['metrics'][n]['value']:.5g}" for n in values)
            + f" calib={detail['calib_before_s']:.3f}/"
            f"{detail['calib_after_s']:.3f}", flush=True)
    report = {}
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        share = quartile_spread(series)
        report[name] = {"median": median, "q1": q1, "q3": q3,
                        "spread": share, "bound": bounds[name]}
        flag = ""
        if share > bounds[name]:
            flag = "  OVER BOUND"
            ok = False
        elif share > bounds[name] / 3:
            flag = "  above a third of the bound"
        print(f"{name:16s} median {median:.5g}  IQR/median {share:.4f}  "
              f"bound {bounds[name]}{flag}")
    for name, series in raw.items():
        print(f"raw {name:12s} median {statistics.median(series):.5g}  "
              f"IQR/median {quartile_spread(series):.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "values": values,
                       "raw": raw, "report": report}, handle, indent=1)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    one = sub.add_parser("repeat")
    one.add_argument("--seed", type=int, default=1)
    many = sub.add_parser("spread")
    many.add_argument("--seeds", type=int, default=10)
    many.add_argument("--first-seed", type=int, default=1)
    many.add_argument("--out")
    for command in (one, many):
        command.add_argument("--workload", required=True)
        command.add_argument("--seconds", type=int,
                             default=spec()["run_seconds"])
    args = parser.parse_args(argv)
    return repeat(args) if args.command == "repeat" else spread(args)


if __name__ == "__main__":
    sys.exit(main())
