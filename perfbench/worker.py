"""The measured process: one client sending one request list, closed loop.

    python perfbench/worker.py --mode timed  --inputs IN --workdir DIR --out OUT
    python perfbench/worker.py --mode traced --inputs IN --workdir DIR --out OUT
    python perfbench/worker.py --mode probe  --inputs IN --workdir DIR

The worker imports the program, runs the fixed warm-up requests of
``IN/warmup.json`` and prints ``ready`` on stdout: the parent takes
set-up time from spawn to that line, so it covers imports plus warm-up
only.  It then times an interpreter start (``hostspeed.spawn_probe``) and
prints ``speed <seconds>``, which the parent uses to scale the set-up
time.  A ``probe`` exits there.  Otherwise the worker then loads
``IN/requests.json``, builds its jobs, sends every request in order and
writes one JSON record per request, with its raw latency and its latency
scaled by the reference probes around it.  ``traced`` wraps layer spans
around the same requests (see ``layers.py``).  ``cli-cold`` requests
are ``python -m repro`` children, one at a time.

All calls into the program go through :func:`make_job` and
:meth:`Client.send`, the one place that knows its API (``layers.py``
names the functions it wraps).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import hostspeed

#: Request time between two reference probes on the warm workloads: the
#: probes cost about 3% of it, and a slow spell lasts far longer.
PROBE_EVERY_S = 0.1


def make_job(request):
    from repro.batch import AnalysisJob

    kind = request["kind"]
    if kind == "aadl":
        return AnalysisJob.from_aadl(
            request["source"], job_id=request["id"], reduce=request["reduce"]
        )
    if kind == "portfolio":
        return AnalysisJob.from_portfolio(request["source"], job_id=request["id"])
    if kind == "hier":
        return AnalysisJob.from_hier(request["source"], job_id=request["id"])
    return AnalysisJob.from_modal(
        request["source"],
        job_id=request["id"],
        protocol=request["protocol"],
        portfolio=True,
    )


class Client:
    """Sends requests of one workload; holds the verdict cache of a
    ``warm-portfolio`` run."""

    def __init__(self, workload: str, workdir: str, traced: bool) -> None:
        self.workload = workload
        self.workdir = workdir
        self.traced = traced
        self.cli_children = []
        self.store = None
        if workload == "warm-portfolio":
            from repro.batch import VerdictCache

            self.store = VerdictCache(os.path.join(workdir, "cache"))

    def send(self, request, job):
        """One request (and its prepared job) to a verdict:
        ``(verdict, error)``."""
        if self.workload == "cli-cold":
            return self._cli(request)
        if self.workload == "warm-explore":
            from repro.batch import execute_job

            result = execute_job(job)
        else:
            from repro.batch import run_batch

            result = run_batch([job], workers=1, cache=self.store).results[0]
        return result.verdict, result.error

    def _cli(self, request):
        if self.traced:
            return self._cli_traced(request)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *request["argv"]],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            check=False,
        )
        return cli_verdict(proc.returncode, proc.stdout, proc.stderr)

    def _cli_traced(self, request):
        """The request in a child that reports its import graph and the
        time ``repro.cli.main`` takes once imported."""
        out = os.path.join(self.workdir, f"cli{len(self.cli_children)}.json")
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", os.path.abspath(__file__),
             "--mode", "cli-child", "--inputs", "-", "--workdir",
             self.workdir, "--out", out, "--", *request["argv"]],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            check=False,
        )
        try:
            with open(out, "r", encoding="utf-8") as handle:
                child = json.load(handle)
        except (OSError, ValueError):
            return "error", f"cli child exited {proc.returncode}"
        child["imports"] = import_profile(proc.stderr)
        self.cli_children.append(child)
        return cli_verdict(child["exit"], child.pop("stdout"), proc.stderr)


def cli_setup_probe() -> float:
    """Set-up time of a ``cli-cold`` request: interpreter start plus
    ``import repro.cli``, in a fresh process."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro.cli"], check=True)
    return time.perf_counter() - started


def cli_child(argv, out):
    """Body of a traced ``cli-cold`` request (run under ``-X importtime``)."""
    import contextlib
    import io

    import repro.cli

    imported = time.perf_counter()
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = repro.cli.main(argv)
    done = time.perf_counter()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"request_s": done - imported, "exit": code,
                   "stdout": buffer.getvalue()}, handle)


def import_profile(text: str) -> dict:
    """Totals from ``-X importtime`` output: seconds importing (sum of
    top-level cumulative times), numpy's and networkx's cumulative
    seconds, and the number of modules imported."""
    total = numpy = networkx = 0.0
    modules = 0
    for line in text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            seconds = int(parts[1]) / 1e6
        except ValueError:
            continue  # the header line
        modules += 1
        name = parts[2]
        if not name.startswith("  "):
            total += seconds
        if name.strip() == "numpy" and not numpy:
            numpy = seconds
        if name.strip() == "networkx" and not networkx:
            networkx = seconds
    return {"import_s": total, "numpy_s": numpy, "networkx_s": networkx,
            "modules": modules}


def cli_verdict(code, stdout, stderr):
    """The verdict a ``repro analyze`` run reported: its ``verdict:``
    line, checked against its exit code (0 schedulable, 1
    unschedulable, 3 unknown)."""
    line = next(
        (l for l in stdout.splitlines() if l.startswith("verdict:")), ""
    )
    verdict = line.partition(":")[2].strip()
    expected = {0: "schedulable", 1: "unschedulable", 3: "unknown"}.get(code)
    if expected is None or verdict != expected:
        return "error", f"exit {code}, {line!r}: {stderr[-300:]}"
    return verdict, None


def _scale_segment(segment, before, reference, nominal) -> float:
    """Probe the ``reference``, scale the latencies of ``segment`` by it
    and by ``before``, empty ``segment`` and return the new probe."""
    after = reference()
    for record in segment:
        record["latency_s"] = hostspeed.scale(record["raw_s"], before,
                                              after, nominal)
    segment.clear()
    return after


def _jobs(requests, workload):
    """The job of every request, built before it is timed."""
    if workload == "cli-cold":
        return [None] * len(requests)
    return [make_job(request) for request in requests]


def _load(inputs_dir, name):
    with open(os.path.join(inputs_dir, name), "r", encoding="utf-8") as handle:
        return json.load(handle)


def run(inputs_dir, mode, workdir):
    warmup_data = _load(inputs_dir, "warmup.json")
    workload = warmup_data["workload"]
    traced = mode == "traced"
    # cli-cold requests run in children; the worker itself stays untraced.
    recorder = None
    if traced and workload != "cli-cold":
        import layers

        recorder = layers.Recorder()
        layers.install(recorder)
    # Warm-up verdicts go to a cache of their own, so the measured
    # cache starts empty.
    warmup = Client(workload, os.path.join(workdir, "warmup"), traced)
    first_request_s = None
    for request, job in zip(warmup_data["warmup"],
                            _jobs(warmup_data["warmup"], workload)):
        started = time.perf_counter()
        warmup.send(request, job)
        if first_request_s is None:
            first_request_s = time.perf_counter() - started
    print("ready", flush=True)
    print(f"speed {hostspeed.spawn_probe()!r}", flush=True)
    if mode == "probe":
        return None

    requests = _load(inputs_dir, "requests.json")
    jobs = _jobs(requests, workload)
    client = Client(workload, workdir, traced)
    if recorder is not None:
        recorder.spans.clear()
        recorder.counts.clear()
    records = []
    setup_samples = []
    # A cli-cold request starts an interpreter: it is scaled by
    # interpreter starts around it, a warm one by the reference block.
    cli = workload == "cli-cold"
    reference = hostspeed.spawn_probe if cli else hostspeed.probe
    nominal = hostspeed.NOMINAL_SPAWN_S if cli else hostspeed.NOMINAL_S
    segment = []  # requests since the last reference probe
    before = reference()
    for request, job in zip(requests, jobs):
        if cli and not traced:
            # Probed between the requests, so set-up samples the host
            # over the whole pass, as the latencies do.
            raw = cli_setup_probe()
            after = reference()
            setup_samples.append(hostspeed.scale(raw, before, after, nominal))
            before = after
        started = time.perf_counter()
        verdict, error = client.send(request, job)
        raw = time.perf_counter() - started
        record = {"id": request["id"], "verdict": verdict, "error": error,
                  "raw_s": raw}
        records.append(record)
        segment.append(record)
        # A cli-cold request is long enough to be probed on its own.
        if cli or sum(r["raw_s"] for r in segment) >= PROBE_EVERY_S:
            before = _scale_segment(segment, before, reference, nominal)
    if segment:
        _scale_segment(segment, before, reference, nominal)

    who = (
        resource.RUSAGE_CHILDREN if workload == "cli-cold"
        else resource.RUSAGE_SELF
    )
    out = {
        "records": records,
        "setup_samples": setup_samples,
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024.0,
        "first_request_s": first_request_s,
        "cli_children": client.cli_children,
    }
    if client.store is not None:
        hits, misses = client.store.hits, client.store.misses
        out["cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    if recorder is not None:
        from repro.acsr.terms import intern_table_size

        out["layers"] = layers.layer_metrics(
            recorder, len(records), sum(r["raw_s"] for r in records),
            intern_table_size(),
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", required=True,
                        choices=("timed", "traced", "probe", "cli-child"))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out")
    parser.add_argument("argv", nargs="*", help="cli-child: repro arguments")
    args = parser.parse_args(argv)
    if args.mode == "cli-child":
        cli_child(args.argv, args.out)
        return 0
    result = run(args.inputs, args.mode, args.workdir)
    if result is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
    # The record is written; skip tearing down a large heap object by
    # object, which costs the run time and measures nothing.
    sys.stdout.flush()
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
