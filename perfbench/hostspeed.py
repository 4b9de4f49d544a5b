"""How fast the CPU the benchmark runs on is right now.

On a shared host a vCPU switches between a fast and a slow regime
(about 1.8x apart for pure Python) for spells of a second to a few tens
of seconds, and each vCPU does so on its own.  A run's raw times thus
depend on how much of the run fell into slow spells.  The benchmark
therefore times a fixed reference on the same CPU right before and after
the work it measures, and reports every time scaled to a nominal
reference speed:

    normalized = raw * nominal / reference

There are two references, each independent of the program, so a change
to the program moves the normalized time exactly as it moves the raw
time, while a slow spell moves both the raw time and the reference and
cancels out.  In-process requests are scaled by :func:`probe`, a
pure-Python block; work that starts a fresh interpreter (a ``cli-cold``
request, a worker's set-up) by :func:`spawn_probe`, a bare interpreter
start, which a slow spell slows by a different factor than pure Python.
The raw times stay in the detail line.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time

#: Seconds one reference block takes on a 2-core x86-64 VM (Intel Xeon)
#: in its fast regime.  Normalized times are seconds on a host that
#: runs the block in this time.
NOMINAL_S = 0.0015
#: Seconds :func:`spawn_probe` takes on that host in its fast regime.
NOMINAL_SPAWN_S = 0.0095

_WORDS = re.compile(r"[A-Za-z_]\w*|\d+|=>|[{}();:.,]")
_TEXT = (
    "thread implementation worker_%d.impl\n"
    "  properties Period => %d ms; Compute_Execution_Time => %d ms .. %d ms;\n"
    "    Deadline => %d ms; Priority => %d;\n"
    "end worker_%d.impl;\n"
)


class _Node:
    __slots__ = ("name", "weight", "children")

    def __init__(self, name, weight):
        self.name = name
        self.weight = weight
        self.children = []


def reference_block() -> int:
    """A fixed mix of the work the program does -- tokenizing text,
    building small objects, and exploring a state space of tuples kept
    in a dict -- that never changes with the program."""
    text = "".join(_TEXT % (i, 10 * i, i, i + 1, 10 * i, i, i)
                   for i in range(12))
    nodes = [_Node(tok, len(tok)) for tok in _WORDS.findall(text)]
    for index, node in enumerate(nodes[1:], 1):
        nodes[index // 3].children.append(node)
    total = sum(n.weight for n in nodes if n.children)
    start = (0, 0, 0)
    seen = {start: 0}
    frontier = [start]
    while frontier:
        successors = []
        for state in frontier:
            for slot in range(3):
                nxt = list(state)
                nxt[slot] = (nxt[slot] + slot + 1) % 11
                nxt = tuple(nxt)
                if nxt not in seen:
                    seen[nxt] = len(seen)
                    successors.append(nxt)
        frontier = successors
    return total + len(seen)


def _fastest_of_two(work) -> float:
    """Seconds of the faster of two runs of ``work``, so an interrupt in
    one does not count as a slow spell."""
    times = []
    for _ in range(2):
        started = time.perf_counter()
        work()
        times.append(time.perf_counter() - started)
    return min(times)


def probe() -> float:
    """Seconds of one reference block (nominal :data:`NOMINAL_S`)."""
    return _fastest_of_two(reference_block)


def spawn_probe() -> float:
    """Seconds to start and end a bare interpreter (nominal
    :data:`NOMINAL_SPAWN_S`)."""
    argv = [sys.executable, "-I", "-S", "-c", "pass"]
    return _fastest_of_two(lambda: subprocess.run(argv, check=True))


def scale(raw: float, before: float, after: float,
          nominal: float = NOMINAL_S) -> float:
    """``raw`` seconds, measured between reference probes ``before`` and
    ``after`` whose nominal time is ``nominal``, at the nominal speed."""
    return raw * nominal / ((before + after) / 2)



def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the reference
    probes time the CPU the measured work runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
