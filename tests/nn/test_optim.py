"""Optimizer math against hand-computed updates, plus LR schedules."""

import math

import numpy as np
import pytest

from repro.nn import SGD, ConstantLR, CosineAnnealingLR, StepLR, Tensor
from repro.nn.optim import Adam


def param_with_grad(value, grad):
    p = Tensor(np.array([value], dtype=np.float32), requires_grad=True)
    p.grad = np.array([grad], dtype=np.float32)
    return p


class TestSgd:
    def test_vanilla_update(self):
        p = param_with_grad(1.0, 0.5)
        SGD([p], lr=0.1).step()
        assert p.data[0] == pytest.approx(1.0 - 0.1 * 0.5)

    def test_weight_decay(self):
        p = param_with_grad(2.0, 0.0)
        SGD([p], lr=0.1, weight_decay=0.01).step()
        assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.01 * 2.0)

    def test_momentum_accumulates(self):
        p = param_with_grad(0.0, 1.0)
        opt = SGD([p], lr=1.0, momentum=0.9)
        opt.step()                       # v=1, p=-1
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()                       # v=1.9, p=-2.9
        assert p.data[0] == pytest.approx(-2.9)

    def test_nesterov_differs_from_plain(self):
        p1 = param_with_grad(0.0, 1.0)
        p2 = param_with_grad(0.0, 1.0)
        SGD([p1], lr=1.0, momentum=0.9).step()
        SGD([p2], lr=1.0, momentum=0.9, nesterov=True).step()
        assert p2.data[0] == pytest.approx(-1.9)
        assert p1.data[0] == pytest.approx(-1.0)

    def test_skips_params_without_grad(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        SGD([p], lr=0.1).step()
        assert p.data[0] == 1.0

    def test_zero_grad(self):
        p = param_with_grad(1.0, 1.0)
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_invalid_lr_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.0)

    def test_nesterov_requires_momentum(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1, nesterov=True)

    def test_state_dict_roundtrip(self):
        p = param_with_grad(0.0, 1.0)
        opt = SGD([p], lr=0.5, momentum=0.9)
        opt.step()
        saved = opt.state_dict()
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        after_two = p.data.copy()
        # rewind and replay
        p.data[...] = -0.5
        opt.load_state_dict(saved)
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(p.data, after_two)


@pytest.mark.parametrize("frozen", [(), (2, 3)], ids=["full", "split"])
@pytest.mark.parametrize("momentum,nesterov", [(0.0, False), (0.9, False),
                                               (0.9, True)])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
def test_fused_update_matches_the_per_parameter_loop(weight_decay, momentum,
                                                     nesterov, frozen):
    """``SGD(flat=…)`` runs the loop's arithmetic over the fused
    storage — every combination of its options (weight decay without
    momentum used to crash the fused form), and over the trainable
    runs only when parameters in the middle are frozen."""
    from repro.nn.graph import train_step
    from repro.nn.models.registry import build_model

    def make(fused):
        model = build_model("lenet5", seed=1, num_classes=10, in_channels=1,
                            image_size=16, width=0.5)
        for index in frozen:
            model.parameters()[index].requires_grad = False
        return model, SGD(model.parameters(), lr=0.05, momentum=momentum,
                          nesterov=nesterov, weight_decay=weight_decay,
                          flat=model.flatten_parameters() if fused else None)

    (fused, fused_opt), (loop, loop_opt) = make(True), make(False)
    flat = fused.flatten_parameters()
    assert len(flat.trainable_runs()) == 1 + bool(frozen)
    rng = np.random.default_rng(0)
    for _ in range(3):
        x = rng.standard_normal((4, 1, 16, 16)).astype(np.float32)
        y = rng.integers(0, 10, size=4)
        assert (train_step(fused, fused_opt, x, y)
                == train_step(loop, loop_opt, x, y))
        assert flat.grads_ready()
    for a, b in zip(fused.parameters(), loop.parameters()):
        assert np.array_equal(a.data, b.data)
    for ours, theirs in zip(fused_opt.state_dict()["velocity"],
                            loop_opt.state_dict()["velocity"]):
        if ours is not None:
            assert not ours.any() if theirs is None \
                else np.array_equal(ours, theirs)


class TestAdam:
    def test_first_step_is_lr_sized(self):
        """Bias correction makes step one move by ~lr regardless of
        gradient magnitude."""
        p = param_with_grad(0.0, 10.0)
        Adam([p], lr=0.1).step()
        assert p.data[0] == pytest.approx(-0.1, rel=1e-3)

    def test_adapts_to_gradient_scale(self):
        big = param_with_grad(0.0, 100.0)
        small = param_with_grad(0.0, 0.01)
        Adam([big], lr=0.1).step()
        Adam([small], lr=0.1).step()
        assert big.data[0] == pytest.approx(small.data[0], rel=1e-2)

    def test_weight_decay_pulls_to_zero(self):
        p = param_with_grad(5.0, 0.0)
        Adam([p], lr=0.1, weight_decay=0.1).step()
        assert p.data[0] < 5.0

    def test_skips_gradless_params(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        Adam([p], lr=0.1).step()
        assert p.data[0] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.0)
        with pytest.raises(ValueError):
            Adam([], betas=(1.0, 0.9))

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            p.grad = 2.0 * p.data  # d/dp p^2
            opt.step()
        assert abs(p.data[0]) < 0.05


class TestSchedules:
    def make(self, schedule_cls, **kw):
        p = param_with_grad(0.0, 0.0)
        opt = SGD([p], lr=1.0)
        return opt, schedule_cls(opt, **kw)

    def test_constant(self):
        opt, sched = self.make(ConstantLR)
        for _ in range(5):
            sched.step()
        assert opt.lr == 1.0

    def test_step_lr_decays(self):
        opt, sched = self.make(StepLR, step_size=2, gamma=0.1)
        sched.step()
        assert opt.lr == pytest.approx(1.0)
        sched.step()
        assert opt.lr == pytest.approx(0.1)

    def test_cosine_endpoints(self):
        opt, sched = self.make(CosineAnnealingLR, total_epochs=10,
                               min_lr=0.1)
        for _ in range(10):
            sched.step()
        assert opt.lr == pytest.approx(0.1)

    def test_cosine_midpoint(self):
        opt, sched = self.make(CosineAnnealingLR, total_epochs=10)
        for _ in range(5):
            sched.step()
        assert opt.lr == pytest.approx(0.5 * (1 + math.cos(math.pi / 2)),
                                       abs=1e-9)
