"""T-SERVE: analysis-service throughput, cold misses vs cache hits.

Boots a real :class:`~repro.serve.ReproServer` (thread executor,
ephemeral port) and measures end-to-end HTTP request throughput in two
phases over the same client path:

* **miss phase** -- N requests with distinct cache keys; every one
  queues, runs the full AADL -> ACSR -> exploration pipeline in a
  worker, and answers through the verdict endpoint;
* **hit phase** -- 5N requests that all repeat proven keys (a 100% >=
  90% hit rate), each answered inline from the shared
  :class:`~repro.batch.cache.VerdictCache` on submit.

The service's reason to exist is that the hit path costs one HTTP
round trip, one cache-key computation and one cache read instead of a
model-checking run, so the asserted shape is a >= 10x throughput ratio
-- tight against any regression that silently drops the cache out of
the serve path.  Measured 6-13x on two workers (fails most runs):
keying parses and re-prints the model (~3 ms of a ~5 ms hit), while a
miss on this model costs ~55-65 ms.

The server runs as ``repro serve`` in a fresh subprocess, not in the
benchmark process: earlier benchmarks in the same pytest run warm
process-global state, which made "cold" misses 2-3x cheaper and the
gate depend on test order.
"""

import json
import os
import re
import subprocess
import sys
import time
from http.client import HTTPConnection
from pathlib import Path

import repro
from repro.aadl.gallery import cruise_control_text

from conftest import print_table

#: distinct proofs in the miss phase (split by state budget, which is
#: cache-key material)
MISS_JOBS = 6
#: requests in the hit phase, all repeats
HIT_REQUESTS = 30


def _boot(tmp_path):
    """Start ``repro serve`` (thread executor, ephemeral port) in a
    fresh interpreter; return its address and a teardown callable."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro", "serve",
            "--port", "0",
            "--workers", "2",
            "--backlog", str(MISS_JOBS + 2),
            "--executor", "thread",
            "--cache-dir", str(tmp_path / "cache"),
            "--no-bundles",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    line = proc.stdout.readline()
    match = re.search(r"http://([^:]+):(\d+)", line)
    if match is None:
        proc.kill()
        proc.wait()
        raise AssertionError(f"repro serve did not start: {line!r}")

    def stop():
        proc.terminate()
        proc.wait(30)
        proc.stdout.close()

    return (match.group(1), int(match.group(2))), stop


def _request(addr, method, path, body=None):
    conn = HTTPConnection(*addr, timeout=120)
    conn.request(
        method,
        path,
        body=json.dumps(body) if body is not None else None,
        headers={"Content-Type": "application/json"},
    )
    resp = conn.getresponse()
    data = json.loads(resp.read())
    conn.close()
    return resp.status, data


def _cache_hits(addr):
    status, stats = _request(addr, "GET", "/v1/stats")
    assert status == 200, stats
    return stats["counters"]["cache_hits"]


def _analyze_and_wait(addr, budget):
    """Submit one request and block until its verdict is final."""
    status, body = _request(
        addr,
        "POST",
        "/v1/analyze",
        {
            "source": cruise_control_text(),
            "options": {"max_states": budget},
        },
    )
    if status == 200:  # answered inline (cache hit)
        return body["disposition"]
    rid = body["request_id"]
    while True:
        status, result = _request(addr, "GET", f"/v1/jobs/{rid}/result")
        if status != 202:
            assert status == 200, result
            return body["disposition"]
        time.sleep(0.01)


def test_cache_hit_throughput_dominates_misses(benchmark, tmp_path):
    budgets = [100_000 + i for i in range(MISS_JOBS)]
    addr, stop = _boot(tmp_path)
    try:
        t0 = time.perf_counter()
        for budget in budgets:
            disposition = _analyze_and_wait(addr, budget)
            assert disposition == "queued"
        miss_elapsed = time.perf_counter() - t0
        hits_before = _cache_hits(addr)

        def hit_phase():
            for i in range(HIT_REQUESTS):
                disposition = _analyze_and_wait(
                    addr, budgets[i % MISS_JOBS]
                )
                assert disposition == "cached"

        t1 = time.perf_counter()
        benchmark.pedantic(hit_phase, rounds=1, iterations=1)
        hit_elapsed = time.perf_counter() - t1
        assert _cache_hits(addr) - hits_before == HIT_REQUESTS
    finally:
        stop()

    miss_rps = MISS_JOBS / miss_elapsed
    hit_rps = HIT_REQUESTS / hit_elapsed
    # The acceptance bar: a >= 90%-hit workload must clear 10x the
    # all-miss throughput (measured here at 100% hits).
    assert hit_rps >= 10 * miss_rps, (
        f"hit throughput {hit_rps:.1f} rps is under 10x miss "
        f"throughput {miss_rps:.1f} rps"
    )

    print_table(
        "serve throughput (thread executor, 2 workers, one client)",
        ["phase", "requests", "wall s", "req/s"],
        [
            ("all-miss", MISS_JOBS, f"{miss_elapsed:.2f}",
             f"{miss_rps:.1f}"),
            ("all-hit", HIT_REQUESTS, f"{hit_elapsed:.2f}",
             f"{hit_rps:.1f}"),
        ],
    )
