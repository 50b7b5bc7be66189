#!/usr/bin/env python
"""Scenario: the paper's motivating deployment (§1) — retraining an
input-method-style model overnight on idle SoCs.

The edge operator's day: game sessions occupy the cluster until late
evening; the tidal trace exposes the overnight idle window; the global
scheduler checks whether the training job fits; training runs with
preemption enabled in case users come back early.

Run:  python examples/overnight_input_method.py
"""

from repro.cluster import (ClusterTopology, FaultSchedule, PreemptionStorm,
                           TidalTrace)
from repro.core import SoCFlow
from repro.data import load_dataset
from repro.distributed import RunConfig


def main() -> None:
    # --- 1. When is the cluster free? -------------------------------
    trace = TidalTrace(seed=7)
    window = trace.longest_idle_window(busy_threshold=0.25)
    print(f"average cluster utilisation : {trace.average_utilization():.0%}")
    print(f"overnight idle window       : "
          f"{window.start_hour % 24:.1f}h -> {window.end_hour:.1f}h "
          f"({window.duration_hours:.1f} h)")

    # --- 2. The training job ----------------------------------------
    # An EMNIST-style character model (the paper's input-method example
    # updates per region per night).
    task = load_dataset("emnist", scale=0.03, image_size=16, seed=1)
    config = RunConfig(
        task=task,
        model_name="lenet5",
        width=1.0,
        batch_size=16,
        lr=0.05,
        momentum=0.9,
        max_epochs=8,
        topology=ClusterTopology(num_socs=32),
        sim_samples_per_epoch=112_800,
        sim_global_batch=64,
        num_groups=4,
        # At epoch 6 one logical group is preempted by returning user
        # load; SoCFlow checkpoints it and continues with the rest.
        fault_schedule=FaultSchedule((PreemptionStorm(epoch=6,
                                                      num_groups=1),)),
    )

    # --- 3. Train, tolerating an early-morning user surge ------------
    result = SoCFlow().train(config)

    print("\n=== overnight training run ===")
    print(f"final accuracy   : {result.final_accuracy:.1%}")
    print(f"simulated time   : {result.sim_time_hours:.2f} h")
    print(f"groups preempted : {result.extra['groups_preempted']}")

    fits = result.sim_time_hours < window.duration_hours
    print(f"fits the idle window ({window.duration_hours:.1f} h)? "
          f"{'yes - model ships in the morning' if fits else 'NO'}")
    if not fits:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
