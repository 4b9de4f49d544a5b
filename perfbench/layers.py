"""Benchmark-side spans around the program's layer boundaries.

The traced pass of ``worker.py`` installs :func:`install` before it
runs the same requests as the timed pass.  Each wrapper times one call
into a layer's public function and records a span (name, start, end,
parent); counts come from the wrapped calls' return values.  Nothing
inside the program is modified beyond replacing a module attribute with
a timing wrapper, so the traced pass takes the timed pass's code path
and must reach the same verdicts.

A boundary the program no longer exposes under the expected name
fails the traced run (:func:`install` raises), so a refactor of a layer
cannot turn its metrics into silent zeros.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: Tier names of the portfolio chain, in chain order, plus the
#: exploration escalation.  Fixed here so the metric set does not depend
#: on what a run happens to reach.
TIERS = (
    "utilization-cap", "utilization-bound", "rta", "edf-demand",
    "simulation", "hier", "exploration",
)


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(float)

    def span(self, name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self.stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = time.perf_counter()
            observe = OBSERVERS.get(name)
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def wrap(self, module_name, attr, name):
        module = importlib.import_module(module_name)
        setattr(module, attr, self.span(name, getattr(module, attr)))

    def totals(self):
        """Inclusive seconds per span name."""
        out = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out


def _explored(recorder, args, result):
    stats = result.stats
    recorder.counts["engine.states"] += stats.states
    recorder.counts["engine.transitions"] += stats.transitions
    recorder.counts["engine.cache_hits"] += stats.cache_hits
    recorder.counts["engine.cache_misses"] += stats.cache_misses
    recorder.counts["reduce.orbits_merged"] += stats.orbits_merged
    recorder.counts["reduce.por_pruned"] += stats.por_pruned


def _raised(recorder, args, result):
    if len(args) > 1:
        recorder.counts["analysis.trace_steps"] += len(args[1])


def _decided(recorder, args, result):
    recorder.counts[f"portfolio.decided.{result.decided_by}"] += 1
    recorder.counts["portfolio.requests"] += 1


def _job_done(recorder, args, result):
    stats = result.stats or {}
    recorder.counts["hier.sim_escalations"] += stats.get(
        "hier_sim_escalations", 0
    )
    recorder.counts["modal.transitions_checked"] += stats.get(
        "modal_transitions_checked", 0
    )
    recorder.counts["modal.escalations"] += stats.get(
        "modal_transient_escalations", 0
    )


OBSERVERS = {
    "engine.explore": _explored,
    "analysis.raise": _raised,
    "portfolio.analyze": _decided,
    "batch.execute": _job_done,
}

#: (module, attribute, span name).  Job runners import these lazily
#: from the package, so patching the package attribute reaches them.
BOUNDARIES = (
    ("repro.aadl", "parse_model", "aadl.parse"),
    ("repro.aadl", "instantiate", "aadl.instantiate"),
    ("repro.analysis.schedulability", "translate", "translate.translate"),
    ("repro.analysis.schedulability", "explore", "engine.explore"),
    ("repro.analysis.schedulability", "raise_trace", "analysis.raise"),
    ("repro.engine.reduce", "build_reduction", "reduce.build"),
    ("repro.portfolio", "analyze_portfolio", "portfolio.analyze"),
    ("repro.portfolio.analyzer", "build_context", "portfolio.context"),
    ("repro.portfolio.analyzer", "analyze_model",
     "portfolio.tier.exploration"),
    ("repro.hier", "analyze_hier", "hier.analyze"),
    ("repro.modal", "analyze_modal", "modal.analyze"),
    ("repro.batch.pool", "cache_key", "batch.cache_key"),
    ("repro.batch.pool", "execute_job", "batch.execute"),
)


def install(recorder: Recorder) -> None:
    from repro.batch.cache import VerdictCache
    from repro.portfolio.tiers import Tier

    for module_name, attr, name in BOUNDARIES:
        recorder.wrap(module_name, attr, name)
    VerdictCache.get = recorder.span("batch.cache_get", VerdictCache.get)
    VerdictCache.put = recorder.span("batch.cache_put", VerdictCache.put)
    pending = list(Tier.__subclasses__())
    wrapped = set()
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "decide" in vars(cls) and getattr(cls, "name", None):
            cls.decide = recorder.span(
                f"portfolio.tier.{cls.name}", cls.decide
            )
            wrapped.add(cls.name)
    # Exploration is the escalation's analyze_model, wrapped above.
    unwrapped = set(TIERS) - wrapped - {"exploration"}
    if unwrapped:
        raise LookupError(f"no portfolio tier named {sorted(unwrapped)}")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(recorder: Recorder, requests: int, request_s: float,
                  interned: int) -> dict:
    """Per-layer metrics of one traced pass: times are mean seconds per
    request (inclusive of nested layers), counts are run totals."""
    totals = recorder.totals()
    counts = recorder.counts
    n = max(1, requests)

    def per_request(name):
        return totals.get(name, 0.0) / n

    explore_s = totals.get("engine.explore", 0.0)
    metrics = {
        "aadl.parse_s": per_request("aadl.parse"),
        "aadl.instantiate_s": per_request("aadl.instantiate"),
        "translate.translate_s": per_request("translate.translate"),
        "engine.explore_s": per_request("engine.explore"),
        "engine.states": counts["engine.states"],
        "engine.transitions": counts["engine.transitions"],
        "engine.states_per_s": _ratio(counts["engine.states"], explore_s),
        "engine.trans_cache_hit_ratio": _ratio(
            counts["engine.cache_hits"],
            counts["engine.cache_hits"] + counts["engine.cache_misses"],
        ),
        "acsr.interned_terms": interned,
        "reduce.build_s": per_request("reduce.build"),
        "reduce.orbits_merged": counts["reduce.orbits_merged"],
        "reduce.por_pruned": counts["reduce.por_pruned"],
        "analysis.raise_s": per_request("analysis.raise"),
        "analysis.trace_steps": counts["analysis.trace_steps"],
        "portfolio.context_s": per_request("portfolio.context"),
        "hier.analyze_s": per_request("hier.analyze"),
        "hier.sim_escalations": counts["hier.sim_escalations"],
        "modal.analyze_s": per_request("modal.analyze"),
        "modal.transitions_checked": counts["modal.transitions_checked"],
        "modal.escalations": counts["modal.escalations"],
        "batch.cache_key_s": per_request("batch.cache_key"),
        "batch.cache_get_s": per_request("batch.cache_get"),
        "batch.cache_put_s": per_request("batch.cache_put"),
    }
    for tier in TIERS:
        metrics[f"portfolio.tier.{tier}_s"] = per_request(
            f"portfolio.tier.{tier}"
        )
        metrics[f"portfolio.decided.{tier}"] = counts[
            f"portfolio.decided.{tier}"
        ]
    metrics["portfolio.analytic_frac"] = _ratio(
        counts["portfolio.requests"]
        - counts["portfolio.decided.exploration"],
        counts["portfolio.requests"],
    )
    batched = sum(
        totals.get(name, 0.0)
        for name in ("batch.cache_key", "batch.cache_get",
                     "batch.cache_put", "batch.execute")
    )
    metrics["batch.job_overhead_s"] = (
        max(0.0, request_s - batched) / n if "batch.execute" in totals
        else 0.0
    )
    return metrics
