"""Workload definitions (Table 2) and scale presets.

A *workload* is one row of the paper's evaluation: a model, a dataset,
a simulated batch size and learning parameters.  A *scale preset*
decides how big the real numpy training runs are; the simulated clock
always runs at paper scale regardless of preset.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..cluster.topology import ClusterTopology
from ..data.datasets import DATASET_REGISTRY, load_dataset
from ..data.synthetic import SyntheticImageTask
from ..distributed.base import RunConfig, fp32_train_step, make_model
from ..nn.optim import SGD

__all__ = ["Workload", "ScalePreset", "WORKLOADS", "SCALE_PRESETS",
           "prepare_task", "make_run_config", "pretrain_for_transfer"]


@dataclass(frozen=True)
class Workload:
    """One evaluation workload (a row of Table 3 / a panel of Fig. 8)."""

    key: str
    model: str
    dataset: str
    sim_global_batch: int = 64
    lr: float = 0.05
    momentum: float = 0.9
    transfer_from: str | None = None     # pretrain dataset (ResNet-50 row)
    #: override the preset's channel multiplier (LeNet is tiny to begin
    #: with; shrinking it below full width makes the task unlearnable)
    width: float | None = None


# Table 2 of the paper, in Table-3 row order.
WORKLOADS: dict[str, Workload] = {w.key: w for w in [
    Workload("mobilenet", "mobilenet_v1", "cifar10", sim_global_batch=256),
    Workload("vgg11", "vgg11", "cifar10"),
    Workload("resnet18", "resnet18", "cifar10"),
    Workload("vgg11_celeba", "vgg11", "celeba"),
    Workload("resnet18_celeba", "resnet18", "celeba"),
    Workload("lenet5_emnist", "lenet5", "emnist", width=1.0),
    Workload("lenet5_fmnist", "lenet5", "fmnist", width=1.0),
    Workload("resnet50_finetune", "resnet50", "cifar10", lr=0.02,
             transfer_from="cinic10"),
]}


@dataclass(frozen=True)
class ScalePreset:
    """How big the *real* numpy training runs are.

    The simulated dataset size / batch always stay at paper scale; this
    preset only trades statistical resolution against wall-clock time.
    """

    name: str
    data_scale: float          # fraction of the real dataset generated
    image_size: int
    width: float               # model channel multiplier
    batch_size: int            # real-execution BS_g
    max_epochs: int


SCALE_PRESETS: dict[str, ScalePreset] = {p.name: p for p in [
    # CI-speed: one run in a few seconds.
    ScalePreset("quick", data_scale=0.02, image_size=16, width=0.15,
                batch_size=16, max_epochs=3),
    # Benchmark default: one run in tens of seconds.
    ScalePreset("bench", data_scale=0.06, image_size=16, width=0.25,
                batch_size=16, max_epochs=8),
    # Higher-resolution accuracy studies.
    ScalePreset("full", data_scale=0.15, image_size=16, width=0.35,
                batch_size=32, max_epochs=15),
]}


def prepare_task(workload: Workload, preset: ScalePreset,
                 seed: int = 0) -> SyntheticImageTask:
    return load_dataset(workload.dataset, scale=preset.data_scale,
                        image_size=preset.image_size, seed=seed)


def make_run_config(workload_key: str, preset_name: str = "bench",
                    num_socs: int = 32, num_groups: int = 8,
                    seed: int = 0, max_epochs: int | None = None,
                    target_accuracy: float | None = None,
                    fault_schedule=None,
                    fault_mode: str = "fail-stop",
                    telemetry=None, workers: int = 1,
                    fusion_threshold_mb: float | None = None,
                    fusion_max_ops: int | None = None,
                    graph: bool = False) -> RunConfig:
    """Build the RunConfig for one workload at one scale."""
    workload = WORKLOADS[workload_key]
    preset = SCALE_PRESETS[preset_name]
    task = prepare_task(workload, preset, seed=seed)
    spec = DATASET_REGISTRY[workload.dataset]
    config = RunConfig(
        task=task,
        model_name=workload.model,
        width=workload.width or preset.width,
        batch_size=preset.batch_size,
        lr=workload.lr,
        momentum=workload.momentum,
        max_epochs=max_epochs or preset.max_epochs,
        target_accuracy=target_accuracy,
        seed=seed,
        topology=ClusterTopology(num_socs=num_socs),
        sim_samples_per_epoch=spec.train_size,
        sim_global_batch=workload.sim_global_batch,
        num_groups=num_groups,
        workers=workers,
        fault_schedule=fault_schedule,
        fault_mode=fault_mode,
        telemetry=telemetry,
        fusion_threshold_mb=fusion_threshold_mb,
        fusion_max_ops=fusion_max_ops,
        graph=graph,
    )
    if workload.transfer_from is not None:
        config = pretrain_for_transfer(config, workload, preset, seed)
    return config


def pretrain_for_transfer(config: RunConfig, workload: Workload,
                          preset: ScalePreset, seed: int) -> RunConfig:
    """ResNet-50 transfer learning: pretrain on CINIC-10, then finetune.

    The pretrained weights become ``init_state`` and the backbone is
    frozen, matching the paper's ResNet50-Finetune row.
    """
    source = load_dataset(workload.transfer_from, scale=preset.data_scale,
                          image_size=preset.image_size, seed=seed + 7)
    pretrain_config = replace(config, task=source, init_state=None,
                              freeze_backbone=False)
    model = make_model(pretrain_config)
    optimizer = SGD(model.parameters(), lr=workload.lr,
                    momentum=workload.momentum)
    rng = np.random.default_rng(seed)
    for _ in range(2):
        order = rng.permutation(len(source.x_train))
        for start in range(0, len(order), preset.batch_size):
            idx = order[start:start + preset.batch_size]
            fp32_train_step(model, optimizer, source.x_train[idx],
                            source.y_train[idx])
    return replace(config, init_state=model.state_dict(),
                   freeze_backbone=True)
