"""Seeded request lists and their reference answers.

Run as a child process of ``run.py`` so that neither the model
generators nor the reference computations allocate or intern anything
in the process being measured:

    python perfbench/inputs.py --workload warm-explore --seed 3 \
        --seconds 10 --out inputs/

It writes ``warmup.json`` (the workload's fixed warm-up requests) and
``requests.json`` (the measured list) into ``--out``.  The same
``(workload, seed, seconds)`` always yields the same JSON.
Every workload is a fixed, stratified mix: the seed draws the concrete
models inside each stratum, never the mix itself, so aggregate figures
stay comparable from seed to seed.

Each request carries a ``reference`` computed on a path other than the
one the benchmark times:

* ``exact`` -- the timed verdict must equal ``verdict``;
* ``one-sided`` -- the oracle relation of :mod:`repro.oracle.hier` and
  :mod:`repro.oracle.modal`: a timed ``schedulable`` must be confirmed
  by the reference; a timed ``unschedulable`` is accepted (sufficient
  analyses may be conservative) and counted as such.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import zlib

#: Requests per measured second.  A run sends the same list of
#: ``rate * seconds / passes`` requests in each of its timed passes, so
#: every run of one ``(seed, seconds)`` does the same work and ends in
#: the same program state; nothing is cut by a deadline.  Sized so that
#: the warm passes last about ``seconds`` on a 2-core x86-64 host;
#: ``warm-portfolio`` passes half as long again, so that its tail is
#: taken over enough distinct requests to vary little with the seed, and
#: ``cli-cold`` passes about three times that, because a pass needs
#: more than ten requests for its tail percentile to have ten beyond it.
RATES = {"cli-cold": 3.6, "warm-explore": 25.0, "warm-portfolio": 225.0}

#: Timed passes per run.  More, shorter passes make the median over
#: them steadier.
PASSES = {"cli-cold": 3, "warm-explore": 5, "warm-portfolio": 5}

WORKLOADS = tuple(RATES)

#: The ``cli-cold`` inputs: each example with the flag its shape needs,
#: plus one unschedulable model so the raise path runs.
CLI_INPUTS = (
    ("examples/cruise_control.aadl", ()),
    ("examples/coupled_islands.aadl", ()),
    ("examples/dual_island.aadl", ("--compose",)),
    ("examples/arinc653.aadl", ("--hier",)),
    ("examples/fault_recovery.aadl", ("--modal",)),
    ("perfbench/models/overload.aadl", ()),
)

#: Stratum cycles.  A request list is ``n`` entries of its cycle,
#: repeated; the seed only draws the models.
EXPLORE_CYCLE = (
    "single-rm-low", "single-dm-mid", "single-edf-high",
    "single-rm-over", "multi-bus", "chain", "replicated",
    "single-edf-mid", "multi-bus", "replicated",
)
PORTFOLIO_CYCLE = (
    "implicit-rm", "implicit-edf", "resubmit", "offset-edf",
    "partitioned", "implicit-rm-over", "constrained-dm", "resubmit",
    "modal", "implicit-edf",
)

#: Warm-up requests: fixed (seed-independent), so set-up time does not
#: vary with the seed, and disjoint from every measured request.
WARMUP_SEED = -1
WARMUP_COUNT = 4

def cycle_length(workload: str) -> int:
    """Requests in one pass over the workload's stratum mix."""
    return len({"cli-cold": CLI_INPUTS, "warm-explore": EXPLORE_CYCLE,
                "warm-portfolio": PORTFOLIO_CYCLE}[workload])


def request_count(workload: str, seconds: int) -> int:
    per_cycle = cycle_length(workload)
    cycles = max(1, round(
        RATES[workload] * seconds / PASSES[workload] / per_cycle))
    return cycles * per_cycle


# -- model construction ---------------------------------------------------


def _rng(seed: int, *keys: int):
    import numpy as np

    return np.random.default_rng([abs(seed), 1 if seed < 0 else 0, *keys])


class StratifiedRng:
    """A stand-in for the numpy generator that Latin-hypercube samples
    one stratum across a run.

    The ``j``-th draw of the ``k``-th of ``count`` models of a stratum
    falls in slot ``perm_j[k]`` of ``count`` equal slots of [0, 1), where
    ``perm_j`` is a seeded permutation shared by the stratum's models.
    Every run thus covers each draw's range evenly -- as many light as
    heavy models -- while the seed still picks every value, so the
    run's latency distribution barely moves from seed to seed.
    """

    def __init__(self, seed, stratum, k, count, *keys):
        self._seed = seed
        self._stratum = zlib.crc32(stratum.encode())
        self._k = k
        self._count = count
        self._jitter = _rng(seed, 2, self._stratum, k, *keys)
        self._draws = 0

    def random(self):
        perm = _rng(self._seed, 3, self._stratum, self._draws).permutation(
            self._count
        )
        self._draws += 1
        return (perm[self._k] + float(self._jitter.random())) / self._count

    def uniform(self, low=0.0, high=1.0):
        return low + (high - low) * self.random()

    def integers(self, low, high=None):
        if high is None:
            low, high = 0, low
        return low + min(high - low - 1, int(self.random() * (high - low)))

    def choice(self, options):
        return options[self.integers(len(options))]


def _tasks(rng, utilization, periods, *, constrained=False, offsets=False):
    """One task ``(name, C, T, D, O)`` per period.  Periods are fixed
    per stratum and distinct, so the seed moves execution times (and
    verdicts) but not the size of the state space, and no priority tie
    makes a fixed-priority verdict depend on tie-breaking."""
    from repro.workloads import uunifast

    wcets = [
        min(period, max(1, round(share * period)))
        for period, share in zip(periods, uunifast(len(periods),
                                                   utilization, rng))
    ]
    deadlines = list(periods)
    while constrained:
        deadlines = [wcet + int(rng.integers(0, period - wcet + 1))
                     for wcet, period in zip(wcets, periods)]
        # Distinct deadlines too, for the same reason under DM.
        constrained = len(set(deadlines)) < len(deadlines)
    phases = [int(rng.integers(0, period)) if offsets else 0
              for period in periods]
    return [
        (f"t{index}", *task)
        for index, task in enumerate(zip(wcets, periods, deadlines, phases))
    ]


def _protocol(policy: str):
    from repro.aadl.properties import SchedulingProtocol

    return {
        "rate": SchedulingProtocol.RATE_MONOTONIC,
        "deadline": SchedulingProtocol.DEADLINE_MONOTONIC,
        "edf": SchedulingProtocol.EARLIEST_DEADLINE_FIRST,
    }[policy]


def _add_threads(builder, cpu, tasks, prefix=""):
    from repro.aadl.properties import DispatchProtocol, ms

    handles = []
    for name, wcet, period, deadline, offset in tasks:
        handles.append(
            builder.thread(
                prefix + name,
                dispatch=DispatchProtocol.PERIODIC,
                period=ms(period),
                compute_time=(ms(wcet), ms(wcet)),
                deadline=ms(deadline),
                processor=cpu,
                offset=ms(offset) if offset else None,
            )
        )
    return handles


def _text(model) -> str:
    from repro.aadl import format_model

    return format_model(model)


def single_processor(rng, policy, utilization, periods, **kinds):
    from repro.aadl.builder import SystemBuilder

    tasks = _tasks(rng, utilization, periods, **kinds)
    builder = SystemBuilder("Single")
    cpu = builder.processor("cpu", scheduling=_protocol(policy))
    _add_threads(builder, cpu, tasks)
    return _text(builder.declarative()), {"cpu": (policy, tasks)}


def multi_bus(rng, policy, n_processors, utilization, periods):
    """Processors whose first threads all send over one shared bus to a
    sink (the Fig. 1 shape).  Pure data connections do not change the
    ACSR semantics, so each processor's own task set decides."""
    from repro.aadl.builder import SystemBuilder
    from repro.aadl.properties import DispatchProtocol, ms

    builder = SystemBuilder("Multi")
    bus = builder.bus("net")
    sink_cpu = builder.processor("sink_cpu", scheduling=_protocol(policy))
    top = max(periods)
    sink = builder.thread(
        "sink",
        dispatch=DispatchProtocol.PERIODIC,
        period=ms(top),
        compute_time=(ms(1), ms(1)),
        deadline=ms(top),
        processor=sink_cpu,
    )
    units = {"sink_cpu": (policy, [("sink", 1, top, top, 0)])}
    for p in range(n_processors):
        cpu = builder.processor(f"cpu{p}", scheduling=_protocol(policy))
        tasks = _tasks(rng, utilization, periods)
        handles = _add_threads(builder, cpu, tasks, prefix=f"p{p}")
        handles[0].out_data_port("out")
        sink.in_data_port(f"in_p{p}")
        builder.connect(handles[0], "out", sink, f"in_p{p}", bus=bus)
        units[f"cpu{p}"] = (policy, [(f"p{p}" + t[0],) + t[1:] for t in tasks])
    return _text(builder.declarative()), units


def chain(rng):
    """A periodic source driving sporadic stages through queued event
    connections.  Every stage runs as soon as its predecessor
    completes, so the chain behaves as offset periodic tasks: stage
    ``k`` released ``(k + 1) * C`` after the source."""
    from repro.aadl.properties import OverflowHandlingProtocol
    from repro.workloads import chain_system

    stages = int(rng.integers(2, 4))
    wcet = int(rng.integers(1, 3))
    period = (stages + 1) * wcet + int(rng.integers(0, 4))
    stage_deadline = int(rng.integers(wcet, wcet + 3))
    instance = chain_system(
        stages,
        period=period,
        wcet=wcet,
        stage_deadline=stage_deadline,
        queue_size=int(rng.integers(1, 3)),
        overflow=OverflowHandlingProtocol.DROP_NEWEST,
    )
    tasks = [("source", wcet, period, period, 0)]
    for k in range(stages):
        tasks.append(
            (f"stage{k}", wcet, period, stage_deadline, (k + 1) * wcet)
        )
    return _text(instance.declarative), {"cpu": ("deadline", tasks)}


def replicated(rng):
    from repro.sched.taskmodel import extract_task_set
    from repro.workloads import replicated_system

    instance = replicated_system(
        3,
        2,
        utilization_per_replica=float(rng.uniform(0.4, 1.05)),
        periods=(4, 8),
        rng=rng,
    )
    units = {}
    for cpu in instance.processors():
        tasks = [
            (t.name, t.wcet, t.period, t.deadline, t.offset)
            for t in extract_task_set(instance, cpu)
        ]
        units[cpu.name] = ("rate", tasks)
    return _text(instance.declarative), units


# -- references -----------------------------------------------------------


def classical_verdict(units) -> str:
    """Exact verdict from per-processor task sets: synchronous
    fixed-priority sets by response-time analysis, EDF and
    offset-bearing sets by Leung-Merrill simulation."""
    from repro.sched.rta import rta_schedulable
    from repro.sched.simulation import simulate
    from repro.sched.taskmodel import PeriodicTask, TaskSet

    for policy, tasks in units.values():
        task_set = TaskSet(
            [
                PeriodicTask(name, wcet, period, deadline, offset=offset)
                for name, wcet, period, deadline, offset in tasks
            ]
        )
        if task_set.utilization > 1.0 + 1e-12:
            return "unschedulable"
        if policy != "edf" and all(t[4] == 0 for t in tasks):
            ok = rta_schedulable(task_set, ordering=policy)
        else:
            ok = simulate(
                task_set, policy=policy, stop_at_first_miss=True
            ).schedulable
        if not ok:
            return "unschedulable"
    return "schedulable"


@functools.lru_cache(maxsize=None)
def exploration_verdict(source: str) -> str:
    """Exhaustive exploration of the whole model (no analytic tier)."""
    from repro.aadl import infer_root, instantiate, parse_model
    from repro.analysis import analyze_model

    model = parse_model(source)
    result = analyze_model(instantiate(model, infer_root(model)))
    return result.verdict.value


@functools.lru_cache(maxsize=None)
def hier_reference(source: str) -> str:
    """Flattened supply-aware simulation of every partition under its
    true server parameters (the exact side of :mod:`repro.oracle.hier`)."""
    from repro.aadl import infer_root, instantiate, parse_model
    from repro.hier.flatten import simulate_partition
    from repro.oracle.hier import DEFAULT_CAMPAIGN_WINDOW
    from repro.portfolio.context import build_context

    model = parse_model(source)
    context = build_context(instantiate(model, infer_root(model)))
    for unit in context.units:
        if unit.interface is None:
            continue
        run = simulate_partition(
            unit.tasks,
            unit.interface.period,
            unit.interface.budget,
            policy=unit.sim_policy or "rate",
            max_window=DEFAULT_CAMPAIGN_WINDOW,
        )
        if run.schedulable is None:
            return "unknown"
        if not run.schedulable:
            return "unschedulable"
    return "schedulable"


@functools.lru_cache(maxsize=None)
def modal_reference(source: str):
    """Steady modes by exhaustive exploration; transitions by the honest
    all-phasings switch simulation of :mod:`repro.oracle.modal`.
    Returns ``(verdict, relation)``."""
    from repro.aadl import infer_root, instantiate, parse_model
    from repro.analysis import analyze_model
    from repro.modal import ModeAutomaton
    from repro.modal.analysis import _steady_unit_map
    from repro.oracle.modal import (
        DEFAULT_CAMPAIGN_PHASINGS,
        DEFAULT_CAMPAIGN_WINDOW,
        _reference_transition,
    )

    model = parse_model(source)
    root = infer_root(model)
    impl = model.implementation(root)
    automaton = ModeAutomaton.from_implementation(model, impl)
    modes = sorted(automaton.reachable_modes())
    for mode in modes:
        steady = analyze_model(
            instantiate(model, root, mode_overrides={impl.name: mode})
        )
        if steady.verdict.value != "schedulable":
            return steady.verdict.value, "exact"
    units = _steady_unit_map(model, impl, modes, None)
    for edge in automaton.reachable_edges():
        ok = _reference_transition(
            edge,
            units,
            max_phasings=DEFAULT_CAMPAIGN_PHASINGS,
            max_window=DEFAULT_CAMPAIGN_WINDOW,
        )
        if ok is None:
            return "unknown", "one-sided"
        if not ok:
            return "unschedulable", "one-sided"
    return "schedulable", "one-sided"


# -- workloads ------------------------------------------------------------


def explore_request(stratum: str, rng) -> dict:
    reduce = None
    if stratum == "single-rm-low":
        source, units = single_processor(rng, "rate", 0.6, (4, 6, 8, 12))
    elif stratum == "single-dm-mid":
        source, units = single_processor(
            rng, "deadline", 0.7, (4, 6, 8, 12), constrained=True
        )
    elif stratum == "single-edf-high":
        source, units = single_processor(rng, "edf", 0.92, (4, 6, 8, 12))
    elif stratum == "single-edf-mid":
        source, units = single_processor(rng, "edf", 0.75, (5, 8, 10, 20))
    elif stratum == "single-rm-over":
        source, units = single_processor(rng, "rate", 1.0, (4, 6, 8, 12))
    elif stratum == "multi-bus":
        source, units = multi_bus(rng, "rate", 2, 0.6, (4, 6, 12))
    elif stratum == "chain":
        source, units = chain(rng)
    elif stratum == "replicated":
        source, units = replicated(rng)
        reduce = "sym,por"
    else:  # pragma: no cover - cycles name only the strata above
        raise ValueError(stratum)
    return {
        "kind": "aadl",
        "stratum": stratum,
        "source": source,
        "reduce": reduce,
        "reference": {
            "verdict": classical_verdict(units),
            "relation": "exact",
        },
    }


def portfolio_request(stratum: str, rng) -> dict:
    if stratum == "implicit-rm":
        source, _ = single_processor(rng, "rate", 0.7, (4, 6, 12))
    elif stratum == "implicit-rm-over":
        source, _ = single_processor(rng, "rate", 0.97, (4, 5, 10))
    elif stratum == "implicit-edf":
        source, _ = single_processor(rng, "edf", 0.85, (4, 6, 12))
    elif stratum == "offset-edf":
        source, _ = single_processor(
            rng, "edf", 0.8, (4, 6, 8), offsets=True, constrained=True
        )
    elif stratum == "constrained-dm":
        source, _ = single_processor(
            rng, "deadline", 0.65, (4, 6, 12), constrained=True
        )
    elif stratum == "partitioned":
        return _partitioned(rng)
    elif stratum == "modal":
        return _modal(rng)
    else:  # pragma: no cover
        raise ValueError(stratum)
    return {
        "kind": "portfolio",
        "stratum": stratum,
        "source": source,
        "reference": {
            "verdict": exploration_verdict(source),
            "relation": "exact",
        },
    }


def _partitioned(rng) -> dict:
    from repro.workloads import partitioned_system

    instance = partitioned_system(
        int(rng.integers(2, 4)),
        2,
        utilization_per_partition=float(rng.uniform(0.2, 0.5)),
        supply_factor=(0.8, 1.8),
        edf_fraction=0.3,
        rng=rng,
    )
    source = _text(instance.declarative)
    return {
        "kind": "hier",
        "stratum": "partitioned",
        "source": source,
        "reference": {
            "verdict": hier_reference(source),
            "relation": "one-sided",
        },
    }


def _modal(rng) -> dict:
    from repro.workloads import faulty_modal_system

    model = faulty_modal_system(
        int(rng.integers(2, 4)),
        int(rng.integers(1, 3)),
        utilization=(0.2, 0.6),
        include_orphan=bool(rng.random() < 0.25),
        rng=rng,
    )
    source = _text(model)
    verdict, relation = modal_reference(source)
    return {
        "kind": "modal",
        "stratum": "modal",
        "source": source,
        "protocol": "asynchronous",
        "reference": {"verdict": verdict, "relation": relation},
    }


def cli_request(index: int, order) -> dict:
    path, flags = CLI_INPUTS[order[index % len(order)]]
    verdict = "unschedulable" if "overload" in path else "schedulable"
    return {
        "kind": "cli",
        "stratum": os.path.basename(path),
        "argv": ["analyze", path, *flags],
        "reference": {"verdict": verdict, "relation": "exact"},
    }


def _draw(workload: str, seed: int, n: int):
    """``n`` requests of ``workload``; a request whose reference cannot
    be decided (a capped simulation window) is redrawn."""
    if workload == "cli-cold":
        import random

        order = list(range(len(CLI_INPUTS)))
        random.Random(seed).shuffle(order)
        requests = [cli_request(i, order) for i in range(n)]
    else:
        requests = _draw_models(workload, seed, n)
    for index, request in enumerate(requests):
        request["id"] = f"{workload}-{seed}-{index}"
    return requests


def _model(workload: str, seed: int, n: int, index: int) -> dict:
    """The model request at ``index`` of ``n``; redrawn while its
    reference is undecided (a capped simulation window)."""
    cycle = EXPLORE_CYCLE if workload == "warm-explore" else PORTFOLIO_CYCLE
    make = explore_request if workload == "warm-explore" else portfolio_request
    stratum = cycle[index % len(cycle)]
    same = [i for i in range(n) if cycle[i % len(cycle)] == stratum]
    k, count = same.index(index), len(same)
    attempt = 0
    while True:
        rng = StratifiedRng(seed, stratum, k, count, attempt)
        request = make(stratum, rng)
        if request["reference"]["verdict"] != "unknown":
            break
        attempt += 1
    # Small strata repeat timing parameters; a system name of its own
    # keeps every request a distinct model (its own cache key, its own
    # ACSR terms), as distinct user models would be.
    root = re.search(r"^system implementation (\w+)\.impl", request["source"],
                     re.MULTILINE).group(1)
    name = f"{root}{'W' if seed < 0 else 'N'}{index}"
    request["source"] = re.sub(rf"\b{root}\b", name, request["source"])
    return request


def _draw_models(workload: str, seed: int, n: int):
    cycle = EXPLORE_CYCLE if workload == "warm-explore" else PORTFOLIO_CYCLE
    fresh = [i for i in range(n) if cycle[i % len(cycle)] != "resubmit"]
    requests = [None] * n
    for index in fresh:
        requests[index] = _model(workload, seed, n, index)
    for index in range(n):
        if requests[index] is None:
            # A re-submission: the same model text, so the same cache key.
            earlier = [i for i in fresh if i < index]
            original = requests[int(_rng(seed, 1, index).choice(earlier))]
            requests[index] = dict(original, resubmit=True)
    return requests


def build(workload: str, seed: int, seconds: int):
    """``(warmup, requests)``: the workload's fixed warm-up document and
    the seeded request list."""
    warmup = (
        [] if workload == "cli-cold"
        else _draw(workload, WARMUP_SEED, WARMUP_COUNT)
    )
    for request in warmup:
        request["id"] = "warmup-" + request["id"]
    return (
        {"workload": workload,
         "warmup": [r for r in warmup if not r.get("resubmit")]},
        _draw(workload, seed, request_count(workload, seconds)),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", required=True,
                        help="directory for warmup.json and requests.json")
    args = parser.parse_args(argv)
    warmup, requests = build(args.workload, args.seed, args.seconds)
    os.makedirs(args.out, exist_ok=True)
    for name, data in (("warmup.json", warmup), ("requests.json", requests)):
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as handle:
            json.dump(data, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
