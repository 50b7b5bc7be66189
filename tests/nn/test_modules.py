"""Module system: registration, modes, state dicts."""

import numpy as np
import pytest

from repro.nn import (BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d,
                      Module, ReLU, Sequential, Tensor)


def small_net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(3, 4, 3, rng, padding=1),
        BatchNorm2d(4),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Linear(4 * 4 * 4, 5, rng),
    )


class TestRegistration:
    def test_named_parameters_paths(self):
        net = small_net()
        names = [n for n, _ in net.named_parameters()]
        assert "0.weight" in names and "5.bias" in names

    def test_named_buffers(self):
        net = small_net()
        buffers = dict(net.named_buffers())
        assert "1.running_mean" in buffers
        assert buffers["1.running_var"].shape == (4,)

    def test_num_parameters_positive(self):
        assert small_net().num_parameters() > 0

    def test_parameters_require_grad(self):
        assert all(p.requires_grad for p in small_net().parameters())

    def test_modules_iterates_tree(self):
        net = small_net()
        kinds = {type(m).__name__ for m in net.modules()}
        assert {"Sequential", "Conv2d", "BatchNorm2d", "Linear"} <= kinds


class TestModes:
    def test_train_eval_propagate(self):
        net = small_net()
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_zero_grad_clears(self):
        net = small_net()
        out = net(Tensor(np.zeros((2, 3, 8, 8), dtype=np.float32)))
        out.sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())


class TestStateDict:
    def test_roundtrip_restores_output(self):
        net_a = small_net(seed=0)
        net_b = small_net(seed=99)
        x = Tensor(np.random.default_rng(5).standard_normal((2, 3, 8, 8)))
        net_b.load_state_dict(net_a.state_dict())
        net_a.eval()
        net_b.eval()
        np.testing.assert_allclose(net_a(x).numpy(), net_b(x).numpy(),
                                   rtol=1e-6)

    def test_state_dict_copies_not_views(self):
        net = small_net()
        state = net.state_dict()
        state["0.weight"][...] = 0.0
        assert not np.allclose(net._modules["0"].weight.data, 0.0)

    def test_unexpected_key_raises(self):
        net = small_net()
        state = dict(net.state_dict())
        state["nonsense"] = np.zeros(1)
        with pytest.raises(ValueError, match=r"unexpected keys \['nonsense'\]"):
            net.load_state_dict(state)

    def test_missing_key_raises(self):
        net = small_net()
        state = dict(net.state_dict())
        key = list(state)[-1]
        del state[key]
        with pytest.raises(ValueError, match=f"missing keys \\['{key}'\\]"):
            net.load_state_dict(state)


class TestForwardShapes:
    def test_sequential_forward(self):
        net = small_net()
        out = net(Tensor(np.zeros((2, 3, 8, 8), dtype=np.float32)))
        assert out.shape == (2, 5)

    def test_sequential_iter(self):
        net = small_net()
        assert len(list(net)) == 6

    def test_output_quant_hook_applied(self):
        calls = []

        def hook(t):
            calls.append(t.shape)
            return t

        rng = np.random.default_rng(0)
        layer = Conv2d(1, 2, 3, rng, padding=1)
        layer.output_quant = hook
        layer(Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32)))
        assert calls == [(1, 2, 4, 4)]
