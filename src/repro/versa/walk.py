"""Random and guided walks through an ACSR system.

VERSA offered interactive execution alongside exhaustive search; walks
are the scripted equivalent -- useful for sanity-checking a model's
behaviour, generating example schedules, and statistical smoke tests
where the full space is too large.  A walk is *one* behaviour; only the
explorer's verdicts are exhaustive.

The walk itself is the engine's
:class:`~repro.engine.strategies.RandomWalk` search strategy: this
module keeps the trace-producing API and the transition-choice
policies, and drives :func:`repro.engine.explore` underneath, so walks
share the transition cache, budgets and observer hooks with every
other search.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.engine.budget import Budget
from repro.engine.core import explore
from repro.engine.strategies import RandomWalk
from repro.acsr.definitions import ClosedSystem
from repro.acsr.terms import Term
from repro.versa.traces import Step, Trace

if TYPE_CHECKING:
    import numpy as np

#: A walk policy picks one transition among the enabled ones.
Policy = Callable[[Sequence[Tuple[object, Term]], "np.random.Generator"], int]


def uniform_policy(
    steps: Sequence[Tuple[object, Term]], rng: np.random.Generator
) -> int:
    """Choose uniformly among enabled transitions."""
    return int(rng.integers(len(steps)))


def event_first_policy(
    steps: Sequence[Tuple[object, Term]], rng: np.random.Generator
) -> int:
    """Drain pending events before letting time pass (mirrors the maximal-
    progress intuition; among events, uniform)."""
    from repro.acsr.events import EventLabel

    events = [
        index
        for index, (label, _) in enumerate(steps)
        if isinstance(label, EventLabel)
    ]
    pool = events if events else list(range(len(steps)))
    return int(pool[rng.integers(len(pool))])


#: A walk seed: an int, a SeedSequence (multi_walk hands spawned
#: children straight through), or None for fresh entropy.
Seed = Optional[object]


def random_walk(
    system: ClosedSystem,
    *,
    max_steps: int = 100,
    seed: Seed = None,
    policy: Policy = uniform_policy,
    prioritized: bool = True,
) -> Trace:
    """Walk ``max_steps`` transitions from the root (or until deadlock).

    Returns the trace actually taken.  ``trace.deadlocked`` is always
    filled in: the engine expands the walk's final state, so a deadlock
    is detected even when it is reached on exactly the ``max_steps``-th
    transition (where ``len(trace) < max_steps`` would miss it).
    ``seed`` accepts an int or a :class:`numpy.random.SeedSequence`.
    """
    from repro.obs.tracer import current_tracer

    with current_tracer().span("versa.walk", max_steps=max_steps) as span:
        strategy = RandomWalk(
            max_steps=max_steps, seed=seed, policy=policy
        )
        result = explore(
            system,
            strategy=strategy,
            prioritized=prioritized,
            budget=Budget(max_states=None),
        )
        # The only states the walk expands lie on its path, and the walk
        # stops at the first successor-less one -- so any recorded
        # deadlock is the final state's.
        trace = Trace(
            system.root,
            [Step(label, state) for label, state in strategy.path],
            deadlocked=bool(result.deadlock_states),
        )
        span.set(deadlocked=trace.deadlocked).incr("steps", len(trace))
    return trace


def multi_walk(
    system: ClosedSystem,
    *,
    walks: int = 20,
    max_steps: int = 200,
    seed: Seed = None,
    policy: Policy = uniform_policy,
    prioritized: bool = True,
) -> List[Trace]:
    """``walks`` independent random walks, reproducibly seeded.

    Child seeds come from ``np.random.SeedSequence(seed).spawn(walks)``,
    which guarantees statistically independent, collision-free child
    streams -- drawing raw integers from one generator (the previous
    scheme) can collide on small seed spaces.  A fixed ``seed`` makes
    the whole batch -- every trace, byte for byte -- deterministic; the
    differential oracle and the statistical smoke tests both rely on
    that determinism (pinned by ``tests/test_versa_walk_weak.py``).
    """
    import numpy as np

    from repro.obs.tracer import current_tracer

    base = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    children = base.spawn(walks)
    with current_tracer().span("versa.multi_walk", walks=walks):
        return [
            random_walk(
                system,
                max_steps=max_steps,
                seed=child,
                policy=policy,
                prioritized=prioritized,
            )
            for child in children
        ]


def walk_statistics(
    system: ClosedSystem,
    *,
    walks: int = 20,
    max_steps: int = 200,
    seed: Seed = None,
) -> dict:
    """Aggregate several uniform walks: deadlock hit-rate and depths.

    A cheap statistical smoke test: a nonzero ``deadlock_rate`` proves
    unschedulability (witnessed), but zero proves nothing -- use the
    explorer for the real verdict.  Deadlocks are decided by the final
    state's enabled transitions (``trace.deadlocked``), not by the walk
    length: a walk whose shortest deadlock lies exactly ``max_steps``
    deep still counts, and a future early-stop reason cannot be
    miscounted as a deadlock.
    """
    import numpy as np

    traces = multi_walk(
        system, walks=walks, max_steps=max_steps, seed=seed
    )
    deadlocks = 0
    durations = []
    for trace in traces:
        durations.append(trace.duration)
        if trace.deadlocked:
            deadlocks += 1
    return {
        "walks": walks,
        "deadlocks": deadlocks,
        "deadlock_rate": deadlocks / walks if walks else 0.0,
        "mean_duration": float(np.mean(durations)) if durations else 0.0,
        "max_duration": max(durations, default=0),
    }
