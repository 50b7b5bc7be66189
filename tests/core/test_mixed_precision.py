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


def assert_twin_holds_fp32_weights(trainer):
    __tracebackhide__ = True
    fp = trainer.fp32.state_dict()
    i8 = trainer.int8.model.state_dict()
    for key in fp:
        np.testing.assert_array_equal(fp[key], i8[key])


class TestConstruction:
    def test_int8_replica_starts_identical(self, quick_config):
        """The twin keeps no weights of its own: its storage is the
        run's weight plane, and its first use loads the FP32 weights."""
        trainer, _ = make_trainer(quick_config)
        flat = trainer.int8.model.flatten_parameters()
        assert flat.data is trainer.arena.weight_plane(flat.layout).array
        trainer.update_alpha(quick_config.task.x_test[:8])
        assert_twin_holds_fp32_weights(trainer)

    def test_unmixed_has_no_int8(self, quick_config):
        trainer, _ = make_trainer(quick_config, mixed=False)
        assert trainer.int8 is None


class TestTrainBatch:
    def test_models_stay_synchronized_after_step(self, quick_config):
        """Eq. 5 spends the twin's weights: after the merge the group
        holds one set (the FP32 replica's), the twin refuses to be read
        until its next use loads them."""
        trainer, _ = make_trainer(quick_config)
        task = quick_config.task
        trainer.train_batch(task.x_train[:16], task.y_train[:16])
        with pytest.raises(RuntimeError, match="weight plane"):
            trainer.int8.model.state_dict()
        trainer.update_alpha(task.x_test[:8])
        assert_twin_holds_fp32_weights(trainer)

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
        key = next(iter(state))
        np.testing.assert_array_equal(trainer.fp32.state_dict()[key],
                                      state[key])
        trainer.update_alpha(quick_config.task.x_test[:8])
        assert_twin_holds_fp32_weights(trainer)
