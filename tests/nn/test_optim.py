"""Optimizer math against hand-computed updates."""

import numpy as np
import pytest

from repro.nn import SGD, Module, Tensor

from ..flat_reference import LoopSgd


class OneParam(Module):
    """A flattened module with one one-element parameter ``p``."""

    def __init__(self, value, grad=None):
        super().__init__()
        self.p = self.register_parameter(
            "w", Tensor(np.array([value], dtype=np.float32)))
        self.flatten_parameters()
        if grad is not None:
            self.set_grad(grad)

    def set_grad(self, grad):
        """A gradient as backward leaves it: in the plane view."""
        self.p.grad = self.p._grad_buf
        self.p.grad[...] = grad


def tensor_with_grad(value, grad):
    p = Tensor(np.array([value], dtype=np.float32), requires_grad=True)
    p.grad = np.array([grad], dtype=np.float32)
    return p


class TestSgd:
    def test_vanilla_update(self):
        m = OneParam(1.0, 0.5)
        SGD([m.p], lr=0.1).step()
        assert m.p.data[0] == pytest.approx(1.0 - 0.1 * 0.5)

    def test_weight_decay(self):
        m = OneParam(2.0, 0.0)
        SGD([m.p], lr=0.1, weight_decay=0.01).step()
        assert m.p.data[0] == pytest.approx(2.0 - 0.1 * 0.01 * 2.0)

    def test_momentum_accumulates(self):
        m = OneParam(0.0, 1.0)
        opt = SGD([m.p], lr=1.0, momentum=0.9)
        opt.step()                       # v=1, p=-1
        m.set_grad(1.0)
        opt.step()                       # v=1.9, p=-2.9
        assert m.p.data[0] == pytest.approx(-2.9)

    def test_trainable_param_without_grad_raises(self):
        m = OneParam(1.0)
        with pytest.raises(RuntimeError, match="no gradient"):
            SGD([m.p], lr=0.1).step()
        assert m.p.data[0] == 1.0

    def test_rebound_grad_raises(self):
        m = OneParam(1.0, 0.5)
        m.p.grad = np.array([0.5], dtype=np.float32)   # left its view
        with pytest.raises(RuntimeError, match="rebound"):
            SGD([m.p], lr=0.1).step()

    def test_skips_params_without_grad(self):
        """A frozen parameter has no gradient and is left alone; one
        that trains must have one (above)."""
        m = OneParam(1.0)
        m.p.requires_grad = False
        SGD(m.parameters(), lr=0.1).step()
        assert m.p.data[0] == 1.0

    def test_params_of_no_flat_buffer_are_refused(self):
        with pytest.raises(ValueError, match="flattened module"):
            SGD([tensor_with_grad(1.0, 0.5)], lr=0.1)

    def test_zero_grad(self):
        m = OneParam(1.0, 1.0)
        opt = SGD([m.p], lr=0.1)
        opt.zero_grad()
        assert m.p.grad is None

    def test_invalid_lr_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.0)

    def test_state_dict_roundtrip(self):
        m = OneParam(0.0, 1.0)
        opt = SGD([m.p], lr=0.5, momentum=0.9)
        opt.step()
        saved = opt.state_dict()
        m.set_grad(1.0)
        opt.step()
        after_two = m.p.data.copy()
        # rewind and replay
        m.p.data[...] = -0.5
        opt.load_state_dict(saved)
        m.set_grad(1.0)
        opt.step()
        np.testing.assert_allclose(m.p.data, after_two)


@pytest.mark.parametrize("frozen", [(), (2, 3)], ids=["full", "split"])
@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
def test_fused_update_matches_the_per_parameter_loop(weight_decay, momentum,
                                                     frozen):
    """``SGD`` runs the per-parameter loop's arithmetic (its twin in
    ``tests/flat_reference.py``) over the fused storage — every
    combination of its options, and over the trainable runs only when
    parameters in the middle are frozen."""
    from repro.nn.graph import train_step
    from repro.nn.models.registry import build_model

    def make(fused):
        model = build_model("lenet5", seed=1, num_classes=10, in_channels=1,
                            image_size=16, width=0.5)
        for index in frozen:
            model.parameters()[index].requires_grad = False
        optimizer = SGD if fused else LoopSgd
        return model, optimizer(model.parameters(), lr=0.05,
                                momentum=momentum, weight_decay=weight_decay)

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
                            loop_opt.velocity):
        if ours is not None:
            assert not ours.any() if theirs is None \
                else np.array_equal(ours, theirs)
