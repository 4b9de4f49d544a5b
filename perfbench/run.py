"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload warm-explore --seed 1 \
        --seconds 20 --trace 0

Run from the repository root.  The run

1. times a fixed pure-Python loop (``host.calib_s``, before and after);
2. generates the seeded request list and its reference answers in a
   child process (``inputs.py``), so nothing of it lands in a measured
   process;
3. runs several timed passes, each a fresh process (``worker.py``) that
   imports the program, warms up and sends the whole list one request
   at a time, and checks every verdict against its reference;
   ``setup_s`` is the median spawn-to-ready time (imports plus warm-up)
   of the passes and of a set-up probe before each (for ``cli-cold``,
   of ``import repro.cli`` probes between the requests, see
   ``worker.py``), ``peak_rss_mib`` is the median over the passes, and
   every other metric is taken over the requests of all passes (see
   :func:`latency_metrics` for the tail).
   All measuring processes share one CPU, and every time is scaled by
   reference probes on that CPU right around it (``hostspeed.py``), so
   a slow spell of a shared host cancels out; the raw times are in the
   detail line;
4. with ``--trace 1``, repeats the requests in a fresh process with
   layer spans (``layers.py``) and reports the per-layer metrics
   instead of the end-to-end ones.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, starting
with ``# detail``, carries the tail percentile, sample counts, per-pass
values, exact counts and a digest of every verdict (see ``check.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402

#: The tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
#: A child that takes longer than this is a failed run.
CHILD_TIMEOUT_S = 150

#: Counts that must repeat exactly for one seed (``check.py repeat``).
EXACT = ("engine.states", "acsr.interned_terms", "portfolio.analytic_frac",
         "cli.modules_loaded")


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop that chases pointers through
    a list larger than the caches: flags a slow or busy host."""
    size = 1 << 19
    chain = [(i * 40501 + 7) % size for i in range(size)]
    started = time.perf_counter()
    index = total = 0
    for _ in range(1_000_000):
        index = chain[index]
        total += index
    return time.perf_counter() - started


def child_env(workdir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = workdir
    return env


def spawn_until_ready(argv, env, stderr_path):
    """Start ``argv``, wait for it to exit and return seconds from spawn
    to its ``ready`` line, scaled by an interpreter start here before
    the spawn and one by the worker right after ``ready``."""
    with open(stderr_path, "w", encoding="utf-8") as stderr:
        before = hostspeed.spawn_probe()
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                stderr=stderr, text=True)
        try:
            ready = speed = None
            for line in proc.stdout:
                if line.strip() == "ready":
                    ready = time.perf_counter() - started
                elif ready is not None and line.startswith("speed "):
                    speed = float(line.split()[1])
                    break
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if code != 0 or speed is None:
        with open(stderr_path, "r", encoding="utf-8") as handle:
            lines = [l for l in handle.read().splitlines()
                     if not l.startswith("import time:")]
        raise RuntimeError(f"a worker exited {code} (ready: {ready is not None})"
                           + "".join(f"\n  {l}" for l in lines[-8:]))
    return hostspeed.scale(ready, before, speed, hostspeed.NOMINAL_SPAWN_S)


def setup_probe(inputs_dir, workdir, env, tag) -> float:
    """Spawn-to-``ready`` time (imports plus warm-up) of a warm worker
    that does no measured work."""
    probedir = os.path.join(workdir, tag)
    os.makedirs(probedir)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--mode",
            "probe", "--inputs", inputs_dir, "--workdir", probedir]
    return spawn_until_ready(argv, env, os.path.join(probedir, "stderr.txt"))


def run_pass(workload, mode, inputs_dir, workdir, env, tag):
    """One timed (or traced) pass; returns the worker's record and its
    spawn-to-ready time."""
    passdir = os.path.join(workdir, tag)
    os.makedirs(passdir)
    out = os.path.join(passdir, "result.json")
    stderr_path = os.path.join(passdir, "stderr.txt")
    importtime = mode == "traced" and workload != "cli-cold"
    argv = [sys.executable, *(["-X", "importtime"] if importtime else []),
            os.path.join(HERE, "worker.py"), "--mode", mode,
            "--inputs", inputs_dir, "--workdir", passdir, "--out", out]
    ready = spawn_until_ready(argv, env, stderr_path)
    with open(out, "r", encoding="utf-8") as handle:
        result = json.load(handle)
    if importtime:
        with open(stderr_path, "r", encoding="utf-8") as handle:
            result["imports"] = worker.import_profile(handle.read())
    return result, ready


def check(requests, records):
    """``(failed, conservative, problems)``: a definite verdict
    contradicting the reference, an error or a crash fails; an
    ``unschedulable`` from a sufficient-only analysis where the
    reference passes is conservative."""
    failed = conservative = 0
    problems = []
    for request, record in zip(requests, records):
        reference = request["reference"]
        verdict = record["verdict"]
        if record["error"] or verdict not in ("schedulable", "unschedulable",
                                              "unknown"):
            failed += 1
            problems.append(f"{request['id']}: {record['error']}"[:400])
        elif verdict == "unknown" or verdict == reference["verdict"]:
            continue
        elif (reference["relation"] == "one-sided"
              and verdict == "unschedulable"):
            conservative += 1
        else:
            failed += 1
            problems.append(
                f"{request['id']} ({request.get('stratum')}): {verdict}, "
                f"reference {reference['verdict']}"
            )
    if len(records) != len(requests):
        failed += len(requests) - len(records)
    return failed, conservative, problems


def digest(records) -> str:
    blob = "\n".join(f"{r['id']}={r['verdict']}" for r in records)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def decided(records) -> int:
    return sum(r["verdict"] in ("schedulable", "unschedulable")
               for r in records)


def tail_rank(samples: int) -> int:
    """1-based rank of the highest percentile with ``TAIL_BEYOND``
    samples beyond it."""
    return max(1, samples - TAIL_BEYOND)


def latency_metrics(passes, key):
    """Median, tail and throughput over the records of ``passes`` (one
    list per pass, same requests in the same order) by their ``key``
    time (``latency_s``, scaled, or ``raw_s``), with the tail's rank
    and sample count.

    The tail is taken over each request's median over the passes when a
    pass holds enough requests for ten to lie beyond a percentile above
    p75: pooled, the ten slowest samples would be two or three requests
    repeated, and which requests those are depends on the seed.  A
    shorter list (``cli-cold``) pools every sample."""
    records = [r for records in passes for r in records]
    latencies = sorted(r[key] for r in records)
    count = len(passes[0])
    if count >= 4 * TAIL_BEYOND:
        tail = sorted(statistics.median(records[i][key] for records in passes)
                      for i in range(count))
    else:
        tail = latencies
    rank = tail_rank(len(tail))
    return {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail[rank - 1],
        # One client in a closed loop: verdicts per second of request time.
        "throughput_rps": decided(records) / sum(latencies),
    }, rank, len(tail)


def layer_metrics(workload, untraced_s, traced, calib):
    if workload == "cli-cold":
        # The children run the pipeline untraced: only the cli layer is
        # measured, and every other layer reads 0.
        layers = {name: 0.0 for name, _ in declared("per_layer")}
        children = traced["cli_children"]
        imports = [c["imports"] for c in children]
        cli = {
            "cli.import_s": statistics.median(i["import_s"] for i in imports),
            "cli.import_numpy_s": statistics.median(
                i["numpy_s"] for i in imports),
            "cli.import_networkx_s": statistics.median(
                i["networkx_s"] for i in imports),
            "cli.modules_loaded": max(i["modules"] for i in imports),
            "cli.first_request_s": statistics.median(
                c["request_s"] for c in children),
        }
    else:
        layers = dict(traced["layers"])
        imports = traced["imports"]
        cli = {
            "cli.import_s": imports["import_s"],
            "cli.import_numpy_s": imports["numpy_s"],
            "cli.import_networkx_s": imports["networkx_s"],
            "cli.modules_loaded": imports["modules"],
            "cli.first_request_s": traced["first_request_s"],
        }
    layers.update(cli)
    layers["batch.cache_hit_ratio"] = traced.get("cache_hit_ratio", 0.0)
    traced_s = sum(r["latency_s"] for r in traced["records"])
    layers["obs.trace_overhead_frac"] = traced_s / untraced_s - 1.0
    layers["host.calib_s"] = calib
    return layers


def declared(kind):
    """``(name, unit)`` of every metric ``BENCHMARK.json`` declares under
    ``kind`` (``end_to_end`` or ``per_layer``)."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return [(m["name"], m["unit"]) for m in spec[kind]]


def measure(args, workdir):
    env = child_env(workdir)
    calib_before = calibrate()
    inputs_dir = os.path.join(workdir, "inputs")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "inputs.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--out", inputs_dir],
        env=env, check=True, timeout=CHILD_TIMEOUT_S,
    )
    with open(os.path.join(inputs_dir, "requests.json"), "r",
              encoding="utf-8") as handle:
        requests = json.load(handle)

    # The measuring processes share one CPU, the one their reference
    # probes time; a shared host slows each CPU on its own.
    hostspeed.pin_to_one_cpu()
    cli = args.workload == "cli-cold"
    setups = []
    passes = []
    failed = conservative = 0
    problems = []
    # Warm set-up is probed before each pass, and a warm pass is a
    # set-up probe too; cli-cold probes between its requests.
    for index in range(inputs.PASSES[args.workload]):
        if not cli:
            setups.append(setup_probe(inputs_dir, workdir, env,
                                      f"probe{index}"))
        timed, ready = run_pass(args.workload, "timed", inputs_dir,
                                workdir, env, f"timed{index}")
        setups += timed["setup_samples"] if cli else [ready]
        pass_failed, pass_conservative, pass_problems = check(
            requests, timed["records"])
        failed += pass_failed
        conservative += pass_conservative
        problems += pass_problems
        passes.append(timed)
    digests = [digest(timed["records"]) for timed in passes]
    if len(set(digests)) != 1:
        failed += 1
        problems.append(f"passes reached different verdicts: {digests}")
    per_pass = [timed["records"] for timed in passes]
    records = [r for pass_records in per_pass for r in pass_records]
    metrics, rank, tail_samples = latency_metrics(per_pass, "latency_s")
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mib"] = statistics.median(
        timed["peak_rss_mib"] for timed in passes)
    metrics["decided_frac"] = decided(records) / len(records)
    detail = {
        "samples_per_pass": len(requests), "passes": len(passes),
        "tail_percentile": 100.0 * rank / tail_samples,
        "tail_samples": tail_samples,
        "setup_samples": setups,
        "raw": latency_metrics(per_pass, "raw_s")[0],
        "per_pass": [latency_metrics([pass_records], key)[0]
                     for pass_records in per_pass
                     for key in ("latency_s", "raw_s")],
        "conservative": conservative, "digest": digests[0],
        "calib_before_s": calib_before,
    }

    if args.trace:
        traced, _ = run_pass(args.workload, "traced", inputs_dir, workdir,
                             env, "traced")
        traced_failed, _, traced_problems = check(requests,
                                                  traced["records"])
        failed += traced_failed
        problems += traced_problems
        if digest(traced["records"]) != digests[0]:
            failed += 1
            problems.append("traced pass reached different verdicts")
        untraced_s = statistics.median(
            sum(r["latency_s"] for r in timed["records"])
            for timed in passes)
        calib = (calib_before + calibrate()) / 2
        layers = layer_metrics(args.workload, untraced_s, traced, calib)
        metrics = {name: {"value": float(layers[name]), "unit": unit}
                   for name, unit in declared("per_layer")}
        detail["exact"] = {name: layers[name] for name in EXACT}
    else:
        detail["calib_after_s"] = calibrate()
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in declared("end_to_end")}
    detail["problems"] = problems[:10]
    return {"correct": failed == 0, "attempted": len(passes) * len(requests),
            "failed": failed, "metrics": metrics}, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/repro/cli.py", "examples") if not
               os.path.exists(p)]
    if missing:
        print(f"error: run from the repository root; missing {missing}",
              file=sys.stderr)
        return 2

    workdir = os.path.abspath(os.path.join(
        ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}"))
    os.makedirs(workdir)
    # The run directory (inputs, verdict caches, worker stderr; up to
    # 18 MB) is left in place.  Deleting a run's thousands of cache
    # files makes file creation in the runs after it up to ten times
    # slower for minutes on an ext4 disk mounted with ``discard``, which
    # moved warm-portfolio's median latency by 30% from run to run.
    try:
        result, detail = measure(args, workdir)
    except (subprocess.SubprocessError, RuntimeError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
