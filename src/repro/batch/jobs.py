"""Batch jobs: one self-contained, picklable analysis request each.

A job is the unit the :mod:`repro.batch` pool ships to a worker
process, so it must be (a) serializable as a plain dict of JSON types
-- no live AADL/ACSR objects cross the process boundary -- and (b)
deterministic: everything the analysis depends on (model text or task
list, budget, quantum, fault name, seeds) is embedded in the job, never
drawn from ambient state.  Two kinds exist:

* ``aadl`` -- an AADL source text plus an optional root implementation;
  executed with :func:`repro.analysis.analyze_model` (the ``repro
  analyze`` pipeline).
* ``case`` -- a serialized :class:`~repro.oracle.case.OracleCase`;
  executed with :func:`repro.oracle.verdicts.evaluate_case` (pipeline
  + classical oracles + agreement classification), which is how the
  differential campaign rides the pool.
* ``island`` -- an AADL source text restricted to one processor island
  (a named subset of threads and processors); the worker re-slices the
  instance with :func:`repro.aadl.slice_instance` and analyzes the
  slice.  This is how :mod:`repro.compose` fans islands out, and the
  island membership is folded into the cache key so per-island verdicts
  persist independently of the rest of the model.
* ``portfolio`` -- an AADL source text analyzed through the tiered
  verdict portfolio (:func:`repro.portfolio.analyze_portfolio`):
  analytic tiers first, exhaustive exploration on escalation.  The tier
  chain configuration rides in ``options["tiers"]`` so portfolio
  verdicts never share cache entries with plain ``aadl`` runs or with
  runs under a different chain.
* ``hier`` -- an AADL source text with virtual-processor partitions,
  analyzed hierarchically (:func:`repro.hier.analyze_hier`): each
  partition against its BDR interface, each host against its servers.
  The derived interface parameters are folded into the cache key (a
  ``-- hier:`` header in the canonical text), so editing a server's
  budget or replenishment invalidates exactly the affected entries.
* ``modal`` -- a multi-modal AADL source analyzed transition-aware
  (:func:`repro.modal.analyze_modal`): steady per-mode verdicts plus a
  transient check of every reachable mode transition under a named
  mode-change protocol.  The protocol (and any transient caps or
  injected fault) rides in the options dict, so verdicts under
  different protocols never share a cache entry.

``aadl`` and ``portfolio`` jobs additionally accept a ``mode`` option:
the worker then pins the instance to that system operation mode
(``mode_overrides``), which is how per-mode analysis fans out through
the pool with independently cached verdicts per mode.

All kinds expose :meth:`AnalysisJob.canonical_model_text`, the
model-side half of the persistent verdict-cache key (see
:mod:`repro.batch.cache`).  Every kind but ``case`` carries AADL source;
:meth:`AnalysisJob.parse` turns it into a :data:`Parsed` pair that a
caller keying and executing the same job (:func:`repro.batch.run_batch`)
hands to both, so the source is parsed once.  The pair is never kept on
the job: jobs outlive their execution (:mod:`repro.serve` keeps every
one it accepted), models must not.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.errors import BatchError, ReproError

if TYPE_CHECKING:
    from repro.aadl.components import DeclarativeModel

#: A job's parsed source: ``(model, root implementation name)``.
Parsed = Tuple["DeclarativeModel", str]

JOB_KINDS = ("aadl", "case", "island", "portfolio", "hier", "modal")

#: Crash-injection faults for harness self-tests -- the batch analogue
#: of :mod:`repro.oracle.faults` and ``REDUCTION_FAULTS``.  A job whose
#: options carry ``batch_fault`` triggers the named failure inside the
#: worker *before* any analysis runs, which is how the tests (and the
#: serve smoke) exercise the pool's crash paths deterministically:
#:
#: * ``raise`` -- throw a non-:class:`ReproError` (a worker bug);
#: * ``sigkill`` -- hard-kill the worker process mid-job (the pool must
#:   survive and report the job as lost);
#: * ``block:<path>`` -- park the worker until ``<path>`` exists (a
#:   deterministic "slow job" for backpressure/coalescing tests).
#:
#: Real workloads never set the option; it participates in the cache
#: key like any other option, so faulted runs cannot poison real ones.
BATCH_FAULTS = ("raise", "sigkill", "block")


def _apply_batch_fault(spec: str) -> None:
    import os
    import time

    if spec == "raise":
        raise RuntimeError("injected batch fault: unexpected worker exception")
    if spec == "sigkill":
        import signal

        os.kill(os.getpid(), signal.SIGKILL)
    if spec.startswith("block:"):
        path = spec[len("block:"):]
        deadline = time.monotonic() + 30.0
        while not os.path.exists(path):
            if time.monotonic() > deadline:
                raise BatchError(f"batch fault block:{path} timed out")
            time.sleep(0.01)
        return
    raise BatchError(
        f"unknown batch fault {spec!r}; choose from {list(BATCH_FAULTS)}"
    )


class AnalysisJob:
    """One analysis request.

    Attributes:
        job_id: caller-facing label (report rows, progress lines).
        kind: ``"aadl"`` or ``"case"``.
        payload: kind-specific model data (JSON types only).
        options: semantic analysis options (JSON types only) -- these
            participate in the cache key, so anything that can change
            the verdict (budget, quantum, fault) must live here and
            nothing else should.
    """

    __slots__ = ("job_id", "kind", "payload", "options")

    def __init__(
        self,
        *,
        job_id: str,
        kind: str,
        payload: Dict[str, Any],
        options: Optional[Dict[str, Any]] = None,
    ) -> None:
        if kind not in JOB_KINDS:
            raise BatchError(
                f"unknown job kind {kind!r}; choose from {list(JOB_KINDS)}"
            )
        self.job_id = job_id
        self.kind = kind
        self.payload = dict(payload)
        self.options = dict(options or {})

    # -- construction ---------------------------------------------------

    @classmethod
    def from_aadl(
        cls,
        source: str,
        *,
        root: Optional[str] = None,
        job_id: Optional[str] = None,
        max_states: int = 1_000_000,
        quantum_us: Optional[int] = None,
        reduce: Optional[str] = None,
        mode: Optional[str] = None,
    ) -> "AnalysisJob":
        """A schedulability check over an AADL source text.

        ``reduce`` is a canonical reduction-spec token (see
        :func:`repro.engine.reduce.reduction_token`); it rides in the
        options dict only when set, so reduced runs never share a
        verdict-cache entry with unreduced ones (whose keys stay
        unchanged).  ``mode`` pins the instance to one system operation
        mode of the root implementation (per-mode fan-out); also
        present only when set, and cache-key material like every
        option.
        """
        options = {"max_states": max_states, "quantum_us": quantum_us}
        if reduce:
            options["reduce"] = reduce
        if mode:
            options["mode"] = mode
        return cls(
            job_id=job_id or (root or "aadl-model"),
            kind="aadl",
            payload={"source": source, "root": root},
            options=options,
        )

    @classmethod
    def from_case(
        cls,
        case,
        *,
        job_id: Optional[str] = None,
        max_states: int = 300_000,
        fault: Optional[str] = None,
    ) -> "AnalysisJob":
        """A differential-oracle evaluation of an
        :class:`~repro.oracle.case.OracleCase` (or its dict form)."""
        data = case if isinstance(case, dict) else case.to_dict()
        return cls(
            job_id=job_id or data.get("case_id", "case"),
            kind="case",
            payload={"case": data},
            options={"max_states": max_states, "fault": fault},
        )

    @classmethod
    def from_island(
        cls,
        source: str,
        *,
        root: Optional[str] = None,
        label: str,
        threads: list,
        processors: list,
        job_id: Optional[str] = None,
        max_states: int = 1_000_000,
        quantum_ps: Optional[int] = None,
        reduce: Optional[str] = None,
        mode: Optional[str] = None,
    ) -> "AnalysisJob":
        """A schedulability check of one processor island.

        ``threads`` / ``processors`` are qualified instance names; the
        worker re-instantiates ``source`` and slices to them.
        ``quantum_ps`` pins the quantum to the *full* model's natural
        quantum so island semantics match the monolithic analysis
        (an island alone could have a coarser GCD).  ``reduce`` is the
        canonical reduction-spec token, and ``mode`` pins the root to
        one steady mode at re-instantiation -- both cache-key material
        like the other options (present only when set).
        """
        options = {"max_states": max_states, "quantum_ps": quantum_ps}
        if reduce:
            options["reduce"] = reduce
        if mode is not None:
            options["mode"] = mode
        return cls(
            job_id=job_id or label,
            kind="island",
            payload={
                "source": source,
                "root": root,
                "label": label,
                "threads": sorted(threads),
                "processors": sorted(processors),
            },
            options=options,
        )

    @classmethod
    def from_portfolio(
        cls,
        source: str,
        *,
        root: Optional[str] = None,
        job_id: Optional[str] = None,
        max_states: int = 1_000_000,
        quantum_us: Optional[int] = None,
        tiers: Optional[str] = None,
        reduce: Optional[str] = None,
        mode: Optional[str] = None,
    ) -> "AnalysisJob":
        """A tiered-portfolio schedulability check over an AADL source.

        ``tiers`` is the chain's config token (see
        :attr:`repro.portfolio.PortfolioAnalyzer.config_token`); None
        selects the default chain.  It lives in the options dict so the
        verdict-cache key distinguishes tier configurations.  ``reduce``
        (the reduction-spec token, present only when set) applies to the
        exploration tier on escalation.  ``mode`` pins the instance to
        one steady operation mode, letting the analytic tiers speak for
        a multi-modal model one mode at a time.
        """
        options = {
            "max_states": max_states,
            "quantum_us": quantum_us,
            "tiers": tiers,
        }
        if reduce:
            options["reduce"] = reduce
        if mode:
            options["mode"] = mode
        return cls(
            job_id=job_id or (root or "aadl-model"),
            kind="portfolio",
            payload={"source": source, "root": root},
            options=options,
        )

    @classmethod
    def from_hier(
        cls,
        source: str,
        *,
        root: Optional[str] = None,
        job_id: Optional[str] = None,
        quantum_us: Optional[int] = None,
        max_window: Optional[int] = None,
        fault: Optional[str] = None,
    ) -> "AnalysisJob":
        """A hierarchical (BDR-interface) check over a partitioned AADL
        source.

        ``max_window`` caps the flattened-simulation window (quanta);
        ``fault`` injects a :data:`repro.hier.HIER_FAULTS` derivation
        bug (self-tests only).  Both are cache-key material, present
        only when set, so faulted or window-capped runs never share an
        entry with honest ones.
        """
        options: Dict[str, Any] = {"quantum_us": quantum_us}
        if max_window:
            options["max_window"] = max_window
        if fault:
            options["hier_fault"] = fault
        return cls(
            job_id=job_id or (root or "aadl-model"),
            kind="hier",
            payload={"source": source, "root": root},
            options=options,
        )

    @classmethod
    def from_modal(
        cls,
        source: str,
        *,
        root: Optional[str] = None,
        job_id: Optional[str] = None,
        protocol: str = "synchronous",
        max_states: int = 1_000_000,
        quantum_us: Optional[int] = None,
        portfolio: bool = False,
        tiers: Optional[str] = None,
        reduce: Optional[str] = None,
        max_phasings: Optional[int] = None,
        max_window: Optional[int] = None,
        fault: Optional[str] = None,
    ) -> "AnalysisJob":
        """A transition-aware modal analysis of a multi-modal source.

        ``protocol`` names the mode-change protocol
        (:data:`repro.modal.PROTOCOLS`) and is always present in the
        options -- a synchronous verdict must never be served from an
        asynchronous run's cache entry or vice versa.  ``portfolio``
        routes each steady mode through the tiered portfolio;
        ``max_phasings`` / ``max_window`` cap the escalated transient
        simulation and ``fault`` injects a :data:`repro.modal.MODAL_FAULTS`
        defect (self-tests only) -- all cache-key material, present
        only when set.
        """
        from repro.modal.transient import PROTOCOLS

        if protocol not in PROTOCOLS:
            raise BatchError(
                f"unknown mode-change protocol {protocol!r}; choose from "
                f"{list(PROTOCOLS)}"
            )
        options: Dict[str, Any] = {
            "protocol": protocol,
            "max_states": max_states,
            "quantum_us": quantum_us,
        }
        if portfolio:
            options["portfolio"] = True
            options["tiers"] = tiers
        if reduce:
            options["reduce"] = reduce
        if max_phasings:
            options["max_phasings"] = max_phasings
        if max_window:
            options["max_window"] = max_window
        if fault:
            options["modal_fault"] = fault
        return cls(
            job_id=job_id or (root or "aadl-model"),
            kind="modal",
            payload={"source": source, "root": root},
            options=options,
        )

    @classmethod
    def from_file(cls, path: str, **options: Any) -> "AnalysisJob":
        """Build a job from a file path.

        ``*.aadl`` becomes an ``aadl`` job; ``*.json`` is read as a
        serialized oracle case (the :meth:`OracleCase.to_dict` layout,
        also the ``case`` field of a repro bundle) or a ``repro.serve``
        result bundle (whose ``job`` field replays verbatim).
        """
        import json
        import os

        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        name = os.path.basename(path)
        if path.endswith(".json"):
            data = json.loads(text)
            if "job" in data and "kind" not in data:
                # A repro.serve bundle: replay the embedded job as-is.
                return cls.from_dict(data["job"])
            if "case" in data and "tasks" not in data:
                data = data["case"]  # accept a whole repro bundle
            options.pop("portfolio", None)
            options.pop("tiers", None)
            options.pop("modal", None)
            options.pop("protocol", None)
            return cls.from_case(data, job_id=name, **options)
        if options.pop("modal", False):
            if not options.pop("portfolio", False):
                options.pop("tiers", None)
                return cls.from_modal(
                    text,
                    root=options.pop("root", None),
                    job_id=name,
                    **options,
                )
            return cls.from_modal(
                text,
                root=options.pop("root", None),
                job_id=name,
                portfolio=True,
                **options,
            )
        options.pop("protocol", None)
        if options.pop("portfolio", False):
            return cls.from_portfolio(
                text,
                root=options.pop("root", None),
                job_id=name,
                **options,
            )
        options.pop("tiers", None)
        return cls.from_aadl(
            text,
            root=options.pop("root", None),
            job_id=name,
            **options,
        )

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "payload": dict(self.payload),
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AnalysisJob":
        missing = {"job_id", "kind", "payload"} - set(data)
        if missing:
            raise BatchError(f"batch job is missing fields: {sorted(missing)}")
        return cls(
            job_id=data["job_id"],
            kind=data["kind"],
            payload=data["payload"],
            options=data.get("options", {}),
        )

    # -- parsing and cache-key material ---------------------------------

    def parse(self) -> Parsed:
        """Parse the AADL source of a non-``case`` job: the model and
        its root implementation (given, or :func:`~repro.aadl.infer_root`).

        Keying and execution only read the model, so one parse may
        serve both; the caller drops it when the job is done.
        """
        from repro.aadl import infer_root, parse_model

        model = parse_model(self.payload["source"])
        return model, self.payload.get("root") or infer_root(model)

    def canonical_model_text(self, parsed: Optional[Parsed] = None) -> str:
        """The canonical AADL text of the instantiated model under test.

        Round-tripping through the parser/printer (``aadl`` jobs) or
        regenerating from the task list (``case`` jobs) erases
        formatting, comments and provenance, so two inputs that denote
        the same model share a cache key and any semantic change breaks
        it.  The inferred root is resolved here, making the key
        independent of whether the caller spelled it out.  ``parsed``
        is this job's :meth:`parse` result, when the caller has one.
        """
        if self.kind == "case":
            from repro.oracle.case import OracleCase

            return OracleCase.from_dict(self.payload["case"]).aadl_text()
        from repro.aadl import format_model

        model, root = parsed or self.parse()
        header = f"-- root: {root}\n"
        if self.kind == "island":
            members = ",".join(sorted(self.payload.get("threads", ())))
            header += f"-- island: {members}\n"
        if self.kind == "hier":
            # Fold the derived (alpha, delta) interface of every
            # partition into the key: a server-parameter edit changes
            # the supply contract even though thread timing is intact.
            from repro.aadl import instantiate
            from repro.hier import derive_interfaces

            interfaces = derive_interfaces(instantiate(model, root))
            tokens = ";".join(
                interfaces[name].token for name in sorted(interfaces)
            )
            header += f"-- hier: {tokens}\n"
        if self.kind == "modal":
            # The protocol also lives in the options (and thus the
            # key); the header makes the canonical text self-describing
            # for humans inspecting cache entries.
            header += f"-- modal: protocol={self.options.get('protocol')}\n"
        return header + format_model(model)

    def __repr__(self) -> str:
        return f"AnalysisJob({self.job_id!r}, kind={self.kind})"


class JobResult:
    """Outcome of one executed (or cache-served) job.

    Plain JSON types throughout: this is both the pool's return channel
    and the verdict-cache storage format.
    """

    __slots__ = (
        "job_id",
        "kind",
        "verdict",
        "states",
        "elapsed",
        "limit_hit",
        "stats",
        "classification",
        "oracles",
        "rendered",
        "error",
        "cached",
        "deduped",
    )

    def __init__(
        self,
        *,
        job_id: str,
        kind: str,
        verdict: str,
        states: int = 0,
        elapsed: float = 0.0,
        limit_hit: Optional[str] = None,
        stats: Optional[Dict[str, Any]] = None,
        classification: Optional[Dict[str, Any]] = None,
        oracles: Optional[list] = None,
        rendered: Optional[str] = None,
        error: Optional[str] = None,
        cached: bool = False,
        deduped: bool = False,
    ) -> None:
        self.job_id = job_id
        self.kind = kind
        self.verdict = verdict
        self.states = states
        self.elapsed = elapsed
        self.limit_hit = limit_hit
        self.stats = stats
        self.classification = classification
        self.oracles = oracles
        self.rendered = rendered
        self.error = error
        self.cached = cached
        #: served from an identical job earlier in the same batch (the
        #: in-process analogue of a verdict-cache hit)
        self.deduped = deduped

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "verdict": self.verdict,
            "states": self.states,
            "elapsed": self.elapsed,
            "limit_hit": self.limit_hit,
            "stats": self.stats,
            "classification": self.classification,
            "oracles": self.oracles,
            "rendered": self.rendered,
            "error": self.error,
            "cached": self.cached,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobResult":
        return cls(
            job_id=data["job_id"],
            kind=data.get("kind", "aadl"),
            verdict=data.get("verdict", "error"),
            states=data.get("states", 0),
            elapsed=data.get("elapsed", 0.0),
            limit_hit=data.get("limit_hit"),
            stats=data.get("stats"),
            classification=data.get("classification"),
            oracles=data.get("oracles"),
            rendered=data.get("rendered"),
            error=data.get("error"),
            cached=data.get("cached", False),
        )

    def __repr__(self) -> str:
        extra = " cached" if self.cached else ""
        return f"JobResult({self.job_id!r}, {self.verdict}{extra})"


def execute_job(
    job: AnalysisJob, parsed: Optional[Parsed] = None
) -> JobResult:
    """Run one job to completion in the current process.

    ``parsed`` is the job's :meth:`~AnalysisJob.parse` result when the
    caller already holds it (:func:`repro.batch.run_batch` keyed the
    job with it); otherwise the runner parses the source itself.

    *Any* exception is captured as a ``verdict="error"`` result rather
    than raised, so neither a malformed model (:class:`ReproError`) nor
    an unexpected worker bug can abort a whole batch -- a crash
    propagating out of a pool worker would otherwise kill every sibling
    job.  Library errors keep their message; unexpected exceptions
    additionally preserve the full traceback string in ``error`` so the
    bug stays diagnosable from the report.  The report maps both to the
    usage-error exit code.
    """
    from repro.obs.tracer import current_tracer

    with current_tracer().span(
        "batch.job", job_id=job.job_id, kind=job.kind
    ) as span:
        try:
            fault = job.options.get("batch_fault")
            if fault:
                _apply_batch_fault(fault)
            if job.kind == "case":
                result = _execute_case(job)
            else:
                runner = _SOURCE_RUNNERS[job.kind]
                result = runner(job, parsed or job.parse())
        except ReproError as exc:
            span.set(verdict="error")
            return JobResult(
                job_id=job.job_id,
                kind=job.kind,
                verdict="error",
                error=str(exc),
            )
        except Exception as exc:
            import traceback

            span.set(verdict="error")
            return JobResult(
                job_id=job.job_id,
                kind=job.kind,
                verdict="error",
                error=(
                    f"unexpected {type(exc).__name__}: {exc}\n"
                    + traceback.format_exc()
                ),
            )
        span.set(verdict=result.verdict)
        return result


def _execute_aadl(job: AnalysisJob, parsed: Parsed) -> JobResult:
    from repro.aadl import instantiate
    from repro.aadl.properties import TimeValue
    from repro.analysis import analyze_model

    model, root = parsed
    quantum_us = job.options.get("quantum_us")
    mode = job.options.get("mode")
    result = analyze_model(
        instantiate(
            model,
            root,
            mode_overrides={root: mode} if mode else None,
        ),
        quantum=TimeValue(quantum_us, "us") if quantum_us else None,
        max_states=job.options.get("max_states", 1_000_000),
        reduction=job.options.get("reduce"),
    )
    stats = result.exploration.stats
    return JobResult(
        job_id=job.job_id,
        kind=job.kind,
        verdict=result.verdict.value,
        states=result.num_states,
        elapsed=result.elapsed,
        limit_hit=result.exploration.limit_hit,
        stats=stats.as_dict() if stats is not None else None,
        rendered=result.format(),
    )


def _execute_portfolio(job: AnalysisJob, parsed: Parsed) -> JobResult:
    from repro.aadl import instantiate
    from repro.aadl.properties import TimeValue
    from repro.portfolio import PortfolioAnalyzer, analyze_portfolio
    from repro.portfolio.tiers import tiers_from_token

    model, root = parsed
    quantum_us = job.options.get("quantum_us")
    mode = job.options.get("mode")
    analyzer = PortfolioAnalyzer(tiers_from_token(job.options.get("tiers")))
    result = analyze_portfolio(
        instantiate(
            model,
            root,
            mode_overrides={root: mode} if mode else None,
        ),
        quantum=TimeValue(quantum_us, "us") if quantum_us else None,
        max_states=job.options.get("max_states", 1_000_000),
        analyzer=analyzer,
        reduction=job.options.get("reduce"),
        steady_mode=bool(mode),
    )
    stats = result.exploration.stats
    return JobResult(
        job_id=job.job_id,
        kind=job.kind,
        verdict=result.verdict.value,
        states=result.num_states,
        elapsed=result.elapsed,
        limit_hit=result.exploration.limit_hit,
        stats=stats.as_dict() if stats is not None else None,
        rendered=result.format(),
    )


def _execute_island(job: AnalysisJob, parsed: Parsed) -> JobResult:
    from repro.aadl import instantiate, slice_instance
    from repro.aadl.properties import TimeValue
    from repro.analysis import analyze_model
    from repro.errors import ComposeError
    from repro.obs.tracer import current_tracer

    model, root = parsed
    mode = job.options.get("mode")
    instance = instantiate(
        model, root, mode_overrides={root: mode} if mode else None
    )
    wanted = set(job.payload["threads"]) | set(job.payload["processors"])
    keep = [
        inst for inst in instance.descendants()
        if inst.qualified_name in wanted
    ]
    found = {inst.qualified_name for inst in keep}
    missing = sorted(wanted - found)
    if missing:
        raise ComposeError(
            f"island {job.payload['label']!r} names components absent from "
            f"the instance: {', '.join(missing)}"
        )
    label = job.payload["label"]
    sliced = slice_instance(instance, keep, label=label)
    quantum_ps = job.options.get("quantum_ps")
    quantum = TimeValue(quantum_ps, "ps") if quantum_ps else None
    partitioned = any(
        thread.bound_processor is not None
        and thread.bound_processor is not thread.host_processor
        for thread in sliced.threads()
    )
    with current_tracer().span("compose.island", island=label) as span:
        if partitioned:
            # The ACSR translation has no server semantics; analyze the
            # partitioned island with the hierarchical (BDR) pipeline,
            # still pinned to the full model's quantum.
            from repro.hier import analyze_hier
            from repro.translate.quantum import TimingQuantizer

            result = analyze_hier(
                sliced,
                quantizer=(
                    TimingQuantizer(quantum) if quantum is not None else None
                ),
                steady_mode=bool(mode),
            )
        else:
            result = analyze_model(
                sliced,
                quantum=quantum,
                max_states=job.options.get("max_states", 1_000_000),
                reduction=job.options.get("reduce"),
            )
        span.set(verdict=result.verdict.value).incr(
            "states", result.num_states
        )
    stats = result.exploration.stats
    return JobResult(
        job_id=job.job_id,
        kind=job.kind,
        verdict=result.verdict.value,
        states=result.num_states,
        elapsed=result.elapsed,
        limit_hit=result.exploration.limit_hit,
        stats=stats.as_dict() if stats is not None else None,
        rendered=result.format(),
    )


def _execute_hier(job: AnalysisJob, parsed: Parsed) -> JobResult:
    from repro.aadl import instantiate
    from repro.aadl.properties import TimeValue
    from repro.hier import DEFAULT_MAX_WINDOW, analyze_hier
    from repro.translate.quantum import TimingQuantizer

    model, root = parsed
    quantum_us = job.options.get("quantum_us")
    result = analyze_hier(
        instantiate(model, root),
        quantizer=(
            TimingQuantizer(TimeValue(quantum_us, "us"))
            if quantum_us
            else None
        ),
        max_window=job.options.get("max_window", DEFAULT_MAX_WINDOW),
        fault=job.options.get("hier_fault"),
    )
    stats = result.exploration.stats
    return JobResult(
        job_id=job.job_id,
        kind=job.kind,
        verdict=result.verdict.value,
        states=result.num_states,
        elapsed=result.elapsed,
        limit_hit=result.exploration.limit_hit,
        stats=stats.as_dict() if stats is not None else None,
        rendered=result.format(),
    )


def _execute_modal(job: AnalysisJob, parsed: Parsed) -> JobResult:
    from repro.aadl.properties import TimeValue
    from repro.modal import analyze_modal
    from repro.modal.transient import (
        DEFAULT_MAX_PHASINGS,
        DEFAULT_TRANSIENT_WINDOW,
    )

    model, root = parsed
    quantum_us = job.options.get("quantum_us")
    result = analyze_modal(
        model,
        root,
        protocol=job.options.get("protocol", "synchronous"),
        quantum=TimeValue(quantum_us, "us") if quantum_us else None,
        max_states=job.options.get("max_states", 1_000_000),
        portfolio=bool(job.options.get("portfolio")),
        tiers=job.options.get("tiers"),
        reduction=job.options.get("reduce"),
        max_phasings=job.options.get("max_phasings", DEFAULT_MAX_PHASINGS),
        max_window=job.options.get("max_window", DEFAULT_TRANSIENT_WINDOW),
        fault=job.options.get("modal_fault"),
    )
    stats = result.stats
    return JobResult(
        job_id=job.job_id,
        kind=job.kind,
        verdict=result.verdict.value,
        states=result.num_states,
        elapsed=result.elapsed,
        stats=stats.as_dict() if stats is not None else None,
        rendered=result.format(),
    )


def _execute_case(job: AnalysisJob) -> JobResult:
    from repro.oracle.case import OracleCase
    from repro.oracle.faults import get_fault
    from repro.oracle.verdicts import evaluate_case

    case = OracleCase.from_dict(job.payload["case"])
    fault = job.options.get("fault")
    pipeline, oracles, classification = evaluate_case(
        case,
        max_states=job.options.get("max_states", 300_000),
        fault=get_fault(fault) if fault else None,
    )
    stats = pipeline.exploration.stats
    return JobResult(
        job_id=job.job_id,
        kind=job.kind,
        verdict=pipeline.verdict.value,
        states=pipeline.num_states,
        elapsed=pipeline.elapsed,
        limit_hit=pipeline.exploration.limit_hit,
        stats=stats.as_dict() if stats is not None else None,
        classification=classification.to_dict(),
        oracles=[oracle.to_dict() for oracle in oracles],
    )


#: Runners of the kinds that carry AADL source, keyed by job kind.
_SOURCE_RUNNERS = {
    "aadl": _execute_aadl,
    "island": _execute_island,
    "portfolio": _execute_portfolio,
    "hier": _execute_hier,
    "modal": _execute_modal,
}
