"""Every ``repro`` subpackage imports cleanly as a process's first import.

``import repro.distributed`` used to raise ``ImportError`` unless
``repro.core`` had been imported before it (``cluster.workload`` reached
up into ``core.scheduler`` for ``PreemptionEvent``, closing a cycle
through ``distributed.base``).  One interpreter per subpackage: import
order inside a test process says nothing.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = sorted(info.name for info in pkgutil.iter_modules(repro.__path__))


def test_the_list_is_the_package():
    assert {"cluster", "core", "distributed", "nn", "quant"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_first(name):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p]))
    done = subprocess.run([sys.executable, "-c", f"import repro.{name}"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_planning_does_not_import_networkx_or_yaml():
    """``import repro`` paid 0.10 s of its 0.25 s for networkx, which
    only 2-coloured a conflict graph of at most 15 vertices; it is
    imported where somebody asks for the graph object (or an odd cycle
    needs DSATUR); yaml is never imported (job files are read by the
    built-in parser)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    program = (
        "import sys, repro.core\n"
        "from repro.cluster import ClusterTopology\n"
        "from repro.core import CommunicationPlan, integrity_greedy_mapping\n"
        "plan = CommunicationPlan.from_mapping(\n"
        "    integrity_greedy_mapping(ClusterTopology(num_socs=27), 9))\n"
        "assert plan.num_cgs == 2, plan.cgs\n"
        "print(sorted({'networkx', 'yaml'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", program],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"

