"""GroupMixedTrainer: dual-path steps and the on-chip merge."""

import numpy as np
import pytest

from repro.distributed.base import CostModel
from repro.core import GroupMixedTrainer
from repro.quant import QuantConfig
from repro.quant.mixed import MixedPrecisionController


def make_trainer(quick_config, mixed=True):
    cost = CostModel(quick_config)
    controller = MixedPrecisionController(cost.t_cpu_sample,
                                          cost.t_npu_sample)
    return GroupMixedTrainer(
        quick_config, controller, QuantConfig(), seed_offset=0,
        precision="mixed" if mixed else "fp32"), controller


class TestConstruction:
    def test_int8_replica_starts_identical(self, quick_config):
        trainer, _ = make_trainer(quick_config)
        fp = trainer.fp32.state_dict()
        i8 = trainer.int8.model.state_dict()
        for key in fp:
            np.testing.assert_array_equal(fp[key], i8[key])

    def test_unmixed_has_no_int8(self, quick_config):
        trainer, _ = make_trainer(quick_config, mixed=False)
        assert trainer.int8 is None


class TestTrainBatch:
    def test_models_stay_synchronized_after_step(self, quick_config):
        trainer, _ = make_trainer(quick_config)
        task = quick_config.task
        trainer.train_batch(task.x_train[:16], task.y_train[:16])
        fp = trainer.fp32.state_dict()
        i8 = trainer.int8.model.state_dict()
        for key in fp:
            np.testing.assert_array_equal(fp[key], i8[key])

    def test_weights_move(self, quick_config):
        trainer, _ = make_trainer(quick_config)
        before = trainer.state_dict()
        task = quick_config.task
        trainer.train_batch(task.x_train[:16], task.y_train[:16])
        moved = any(not np.allclose(before[k], v)
                    for k, v in trainer.state_dict().items())
        assert moved

    def test_unmixed_step_is_plain_fp32(self, quick_config):
        trainer, _ = make_trainer(quick_config, mixed=False)
        task = quick_config.task
        trainer.train_batch(task.x_train[:8], task.y_train[:8])  # no crash


class TestAlpha:
    def test_update_alpha_reflects_agreement(self, quick_config):
        trainer, controller = make_trainer(quick_config)
        alpha = trainer.update_alpha(quick_config.task.x_test[:32])
        # freshly merged identical weights -> the only gap is quantisation
        assert 0.5 < alpha <= 1.0

    def test_unmixed_alpha_untouched(self, quick_config):
        trainer, controller = make_trainer(quick_config, mixed=False)
        before = controller.alpha
        assert trainer.update_alpha(quick_config.task.x_test[:8]) == before


class TestStateRoundtrip:
    def test_load_state_syncs_both(self, quick_config):
        trainer, _ = make_trainer(quick_config)
        state = trainer.state_dict()
        for key in state:
            state[key] = state[key] + 1.0
        trainer.load_state(state)
        np.testing.assert_array_equal(
            trainer.fp32.state_dict()[next(iter(state))],
            trainer.int8.model.state_dict()[next(iter(state))])
