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


def test_preemption_event_resolves_from_both_packages():
    from repro.cluster import PreemptionEvent
    from repro.core import scheduler
    assert scheduler.PreemptionEvent is PreemptionEvent
