"""Import budget: the verdict path loads neither numpy nor networkx.

A cold ``repro analyze`` used to spend about half its wall time
importing two libraries no verdict uses.  Optional-heavy libraries are
imported inside the functions that use them (``LTS.to_networkx``,
``multi_walk``, ``walk_statistics``, the random-walk strategy), so the
analyze path never pays for them.  Each check runs in a fresh
interpreter: inside the test process numpy is long since loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.aadl.gallery import cruise_control_text

SRC = Path(repro.__file__).resolve().parent.parent
EXAMPLES = SRC.parent / "examples"
HEAVY = ("numpy", "networkx")

#: The flag each example needs for its analysis shape; examples not
#: named here run plain.
EXAMPLE_FLAGS = {
    "dual_island.aadl": ["--compose"],
    "arinc653.aadl": ["--hier"],
    "fault_recovery.aadl": ["--modal"],
}

_REPORT = (
    "import json, sys\n"
    "print(json.dumps({'status': status, 'loaded': sorted(\n"
    "    m for m in %r if m in sys.modules)}))\n" % (HEAVY,)
)


def _probe(code: str, *argv: str) -> dict:
    """Run ``code`` in a fresh interpreter; it must bind ``status``.
    Returns the exit status and which heavy modules ended up loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\n" + _REPORT, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _analyze(*argv: str) -> dict:
    return _probe(
        "import sys\n"
        "from repro.cli import main\n"
        "status = main(['analyze', *sys.argv[1:]])",
        *argv,
    )


@pytest.mark.parametrize(
    "example", sorted(p.name for p in EXAMPLES.glob("*.aadl"))
)
def test_analyze_example_loads_no_heavy_library(example):
    flags = EXAMPLE_FLAGS.get(example, [])
    result = _analyze(str(EXAMPLES / example), *flags)
    assert result == {"status": 0, "loaded": []}


def test_example_flags_name_real_examples():
    for name in EXAMPLE_FLAGS:
        assert (EXAMPLES / name).is_file(), name


def test_raise_path_loads_no_heavy_library(tmp_path):
    """An unschedulable model walks the deadlock trace back up to AADL
    (the ``repro.analysis.raising`` -> ``repro.versa`` chain)."""
    path = tmp_path / "overloaded.aadl"
    path.write_text(cruise_control_text(overloaded=True))
    assert _analyze(str(path)) == {"status": 1, "loaded": []}


def test_warm_aadl_job_loads_no_heavy_library():
    result = _probe(
        "import sys\n"
        "from repro.batch import AnalysisJob, execute_job\n"
        "job = AnalysisJob.from_aadl(open(sys.argv[1]).read())\n"
        "status = execute_job(job).verdict",
        str(EXAMPLES / "cruise_control.aadl"),
    )
    assert result == {"status": "schedulable", "loaded": []}


def test_exports_and_walks_import_their_library_on_demand():
    result = _probe(
        "import sys\n"
        "from repro.acsr import ProcessEnv, action, idle, proc\n"
        "from repro.versa import (\n"
        "    LTS, Explorer, multi_walk, walk_statistics)\n"
        "assert 'numpy' not in sys.modules\n"
        "assert 'networkx' not in sys.modules\n"
        "env = ProcessEnv()\n"
        "env.define('P', (), action({'cpu': 1}) >> (idle() >> proc('P')))\n"
        "system = env.close(proc('P'))\n"
        "explored = Explorer(system, store_transitions=True).run()\n"
        "graph = LTS.from_exploration(explored).to_networkx()\n"
        "assert graph.number_of_nodes() == 2\n"
        "assert 'networkx' in sys.modules\n"
        "assert 'numpy' not in sys.modules\n"
        "traces = multi_walk(system, walks=3, max_steps=4, seed=1)\n"
        "assert [len(t) for t in traces] == [4, 4, 4]\n"
        "stats = walk_statistics(system, walks=3, max_steps=4, seed=1)\n"
        "assert stats['deadlocks'] == 0\n"
        "status = stats['mean_duration']",
    )
    assert result == {"status": 4.0, "loaded": sorted(HEAVY)}
