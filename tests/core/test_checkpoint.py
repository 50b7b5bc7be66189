"""Checkpoint save/load round-trips and SoCFlow resume."""

from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest

from repro.core import (GlobalScheduler, SoCFlow, SoCFlowOptions,
                        TrainingCheckpoint)
from repro.distributed import CostModel
from repro.harness import SCALE_PRESETS
from repro.telemetry import Telemetry


def sample_state():
    rng = np.random.default_rng(0)
    return OrderedDict(
        weight=rng.standard_normal((4, 3)).astype(np.float32),
        bias=rng.standard_normal(4).astype(np.float32),
    )


class TestRoundTrip:
    def test_save_load_restores_everything(self, tmp_path):
        original = TrainingCheckpoint(
            model_state=sample_state(), epoch=3,
            accuracy_history=[0.1, 0.4, 0.6], alpha=0.87, rng_seed=5,
            meta={"model": "vgg11"})
        path = original.save(tmp_path / "run.npz")
        loaded = TrainingCheckpoint.load(path)
        assert loaded.epoch == 3
        assert loaded.alpha == pytest.approx(0.87)
        assert loaded.rng_seed == 5
        assert loaded.meta == {"model": "vgg11"}
        assert loaded.accuracy_history == pytest.approx([0.1, 0.4, 0.6])
        for key in original.model_state:
            np.testing.assert_array_equal(loaded.model_state[key],
                                          original.model_state[key])

    def test_key_order_preserved(self, tmp_path):
        original = TrainingCheckpoint(model_state=sample_state(), epoch=0)
        loaded = TrainingCheckpoint.load(
            original.save(tmp_path / "k.npz"))
        assert list(loaded.model_state) == list(original.model_state)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TrainingCheckpoint.load(tmp_path / "nope.npz")

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, data=np.zeros(3))
        with pytest.raises(ValueError, match="not a SoCFlow checkpoint"):
            TrainingCheckpoint.load(path)

    def test_creates_parent_directories(self, tmp_path):
        checkpoint = TrainingCheckpoint(model_state=sample_state(), epoch=0)
        path = checkpoint.save(tmp_path / "a" / "b" / "run.npz")
        assert path.exists()


class TestCosts:
    @pytest.mark.parametrize("preset", ["quick", "bench"])
    def test_epoch_checkpoint_is_priced_at_paper_scale(self, quick_config,
                                                       tmp_path, preset):
        """The per-epoch UFS write costs the paper-scale model's bytes,
        whatever width the host model trains at."""
        config = replace(quick_config, max_epochs=1,
                         width=SCALE_PRESETS[preset].width,
                         telemetry=Telemetry.active())
        SoCFlow(SoCFlowOptions(checkpoint_path=str(tmp_path / "c.npz"))
                ).train(config)
        (span,) = [r for r in config.telemetry.tracer.records
                   if r.name == "checkpoint:epoch"]
        board = GlobalScheduler(config.topology)
        cost = CostModel(config)
        assert span.dur_s == board.checkpoint(cost, "update") > 0
        assert span.args["model_bytes"] == cost.grad_bytes


class TestSoCFlowResume:
    def test_resume_continues_from_saved_epoch(self, quick_config, tmp_path):
        path = str(tmp_path / "socflow.npz")
        config2 = replace(quick_config, max_epochs=1)
        SoCFlow(SoCFlowOptions(checkpoint_path=path)).train(config2)
        resumed = SoCFlow(SoCFlowOptions(
            checkpoint_path=path, resume=True)).train(quick_config)
        assert resumed.epochs_run == quick_config.max_epochs
        saved = TrainingCheckpoint.load(path)
        assert saved.epoch == quick_config.max_epochs - 1

    def test_resume_without_checkpoint_starts_fresh(self, quick_config,
                                                    tmp_path):
        path = str(tmp_path / "missing.npz")
        result = SoCFlow(SoCFlowOptions(
            checkpoint_path=path, resume=True)).train(quick_config)
        assert result.epochs_run == quick_config.max_epochs

    def test_fully_trained_checkpoint_resumes_to_noop(self, quick_config,
                                                      tmp_path):
        path = str(tmp_path / "done.npz")
        SoCFlow(SoCFlowOptions(checkpoint_path=path)).train(quick_config)
        resumed = SoCFlow(SoCFlowOptions(
            checkpoint_path=path, resume=True)).train(quick_config)
        # history carries over; no extra epochs were executed
        assert resumed.epochs_run == quick_config.max_epochs
        assert resumed.sim_time_s < 1e4  # only dispatch cost accrued
