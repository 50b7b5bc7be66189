"""The public surface of ``src/repro`` is what something runs.

A caller is the CLI, ``src/`` itself, ``benchmarks/`` or ``examples/``;
tests do not count.  Two pins:

- the definitions, modules and options deleted because nothing ran
  them stay deleted;
- every name a module exports in ``__all__`` is referenced from
  ``src/``, ``benchmarks/`` or ``examples/``, except the allowlisted
  oracles and leftovers below, each with its reason.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import repro
from repro.cluster import FaultInjector, NetworkFabric
from repro.core import SoCFlowOptions
from repro.data import DataLoader
from repro.nn import SGD, StepArena
from repro.serving import ServingPlane
from repro.telemetry import analyze_records

SRC = Path(repro.__file__).parent
ROOT = SRC.parents[1]
CALLERS = [SRC, ROOT / "benchmarks", ROOT / "examples"]

#: ``module path: qualified name`` of every deleted definition
DELETED = {
    "nn/optim.py": {"Adam", "_Scheduler", "ConstantLR", "StepLR",
                    "CosineAnnealingLR"},
    "nn/modules.py": {"AvgPool2d", "BatchNorm1d", "_BatchNorm",
                      "Module.disable_graph_executor", "Dropout"},
    "nn/functional.py": {"avg_pool2d", "dropout"},
    "nn/kernels.py": {"random", "einsum", "var", "mean"},
    "nn/tensor.py": {"Tensor.sigmoid", "is_grad_enabled"},
    "nn/init.py": {"xavier_uniform"},
    "nn/graph.py": {"detach_graph_executor"},
    "nn/flat.py": {"FlatLayout.param_slice"},
    "quant/observer.py": {"MinMaxObserver"},
    "quant/ste.py": {"detach_activation_quant"},
    "quant/mixed.py": {"MixedPrecisionController.npu_share"},
    "quant/trainer.py": {"Int8Trainer.disable_graph_executor"},
    "core/grouping.py": {"first_epoch_accuracy_profile",
                         "GroupSizeSelector"},
    "core/socflow.py": {"build_socflow", "SoCFlow._flush_graph_stats"},
    "core/mapping.py": {"MappingResult.group_of"},
    "core/mixed_precision.py": {"GroupMixedTrainer.set_lr"},
    "cluster/workload.py": {"SessionSimulator.busy_curve",
                            "SessionIndex.counts_at",
                            "derive_training_events"},
    "cluster/topology.py": {"ClusterTopology.restricted",
                            "WanFabric.per_site_epoch_ratio"},
    "cluster/network.py": {"NetworkFabric.broadcast_time",
                           "NetworkFabric.reset_degradations",
                           "NetworkFabric.pcb_multiplier"},
    "cluster/energy.py": {"EnergyModel.gpu_energy",
                          "EnergyModel.charge_idle"},
    "cluster/clock.py": {"PhaseClock.reset", "PhaseClock.fraction"},
    "cluster/faults.py": {"FaultSchedule.max_epoch"},
    "serving/arrivals.py": {"ArrivalProcess.rate_rps"},
    "distributed/base.py": {"StrategyResult.time_to_target_s",
                             "CostModel.step_charge"},
    "comm/compression.py": {"DgcCompressor.reset",
                            "DgcCompressor.compression_ratio",
                            "SparseGradient.wire_bytes",
                            "SparseGradient.nnz"},
    "telemetry/analysis.py": {"HealthMonitor"},
    "telemetry/export.py": {"render_metrics_table"},
}

#: modules deleted whole
DELETED_MODULES = ["core/profiler.py"]

#: (callable, parameter) pairs of the options only ever left at their
#: default; each is a constant now
DELETED_OPTIONS = [
    (SGD, "nesterov"), (StepArena.param_scratch, "slot"),
    (FaultInjector, "flap_multiplier"), (FaultInjector, "flap_outage_epochs"),
    (FaultInjector, "straggler_factor"), (NetworkFabric, "retry_policy"),
    (ServingPlane, "spinup_s"), (ServingPlane, "target_utilisation"),
    (DataLoader, "shuffle"), (DataLoader, "drop_last"),
    (SoCFlowOptions, "group_size_drop_threshold"),
    (analyze_records, "monitor"),
]

#: exported names no caller references, kept on purpose
ALLOWED_UNREFERENCED = {
    # test oracles: independent spellings the tests hold live code to
    "epoch_time_model": "Eq. 1 itself, the closed form ROADMAP item 7's "
                        "epoch ledger checks the charge against",
    "nic_conflict_count": "Theorem 1's NIC-conflict count, the mapping "
                          "tests' oracle for integrity_greedy_mapping",
    "contention_degree": "Eq. 2's contention degree, the mapping tests' "
                         "oracle",
    "skewness": "the label-skew measure the partition tests check "
                "Dirichlet splits with",
    "quantization_error": "the rounding-error oracle of the quantiser "
                          "tests",
    "quantize": "the int32 reference the fused fake-quant kernel is "
                "pinned to bit for bit",
    "dequantize": "the int32 reference the fused fake-quant kernel is "
                  "pinned to bit for bit",
}


def _definitions(path: Path) -> set[str]:
    """Module-level names (defined or assigned: a kernel table entry
    can be either) and one-level-nested (``Class.method``) names."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets
                         if isinstance(target, ast.Name))
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}.{child.name}" for child in node.body
                         if isinstance(child, (ast.FunctionDef,
                                               ast.AsyncFunctionDef)))
    return names


def _references() -> set[str]:
    """Every name a caller loads, reads as an attribute or imports
    (re-exports in ``__init__.py`` do not count), plus the modules it
    imports from."""
    used: set[str] = set()
    for folder in CALLERS:
        for path in folder.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) \
                        and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    used.update((node.module or "").split("."))
                    if path.name != "__init__.py":
                        used.update(alias.name for alias in node.names)
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        used.update(alias.name.split("."))
    return used


def _exports() -> "list[tuple[str, str]]":
    exports = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                relative = str(path.relative_to(SRC))
                exports += [(relative, name)
                            for name in ast.literal_eval(node.value)]
    return exports


@pytest.mark.parametrize("module", sorted(DELETED))
def test_deleted_definitions_stay_deleted(module):
    assert not DELETED[module] & _definitions(SRC / module)


def test_deleted_modules_stay_deleted():
    assert not [m for m in DELETED_MODULES if (SRC / m).exists()]


@pytest.mark.parametrize("owner,option", DELETED_OPTIONS,
                         ids=[f"{o.__qualname__}-{p}"
                              for o, p in DELETED_OPTIONS])
def test_one_value_options_stay_constants(owner, option):
    assert option not in inspect.signature(owner).parameters


def test_every_export_has_a_caller():
    used = _references()
    orphans = sorted(f"{module}: {name}" for module, name in _exports()
                     if name not in used
                     and name not in ALLOWED_UNREFERENCED)
    assert not orphans, orphans


def test_the_allowlist_holds_only_unreferenced_exports():
    """An allowlisted name that gained a caller leaves the list."""
    used = _references()
    exported = {name for _, name in _exports()}
    assert set(ALLOWED_UNREFERENCED) <= exported
    assert not [name for name in ALLOWED_UNREFERENCED if name in used]
