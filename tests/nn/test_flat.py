"""Flat parameter buffer: pack/unpack round-trips and integrity."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import (FlatState, Linear, ReLU, Sequential, Tensor)
from repro.nn import functional as F
from repro.nn.flat import common_flat_layout
from repro.nn.models.registry import MODEL_REGISTRY, build_model

from ..flat_reference import per_key_state


def small_model(seed=0):
    return build_model("lenet5", num_classes=10, in_channels=1,
                       image_size=28, seed=seed)


class TestRoundTrip:
    def test_flatten_preserves_values_bitwise(self):
        reference = MODEL_REGISTRY["lenet5"](num_classes=10, in_channels=1,
                                             image_size=28, seed=3)
        flattened = small_model(seed=3)
        ref_state = per_key_state(reference)
        flat_state = flattened.state_dict()
        assert list(ref_state) == list(flat_state)
        for key in ref_state:
            assert np.array_equal(ref_state[key], flat_state[key]), key

    def test_state_dict_is_flat_state_snapshot(self):
        model = small_model()
        buf = model.flatten_parameters()
        state = model.state_dict()
        assert isinstance(state, FlatState)
        # snapshot is independent of further training
        before = state.flat.copy()
        buf.data += 1.0
        assert np.array_equal(state.flat, before)

    def test_load_flat_round_trip(self):
        model = small_model()
        buf = model.flatten_parameters()
        state = model.state_dict()
        buf.data[...] = 0.0
        buf.load_flat(state)
        assert np.array_equal(buf.data, state.flat)

    def test_flatten_idempotent(self):
        model = small_model()
        assert model.flatten_parameters() is model.flatten_parameters()

    def test_param_views_alias_flat_storage(self):
        model = small_model()
        buf = model.flatten_parameters()
        for param, view in zip(buf.param_tensors, buf.param_views):
            assert param.data.base is buf.data
            assert np.shares_memory(param.data, view)
        buf.data[...] = 7.0
        for param in buf.param_tensors:
            assert np.all(param.data == 7.0)

    @given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)),
                    min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_linear_stacks_round_trip(self, dims):
        rng = np.random.default_rng(0)
        layers = []
        for out_dim, in_dim in dims:
            layers += [Linear(in_dim, out_dim, rng), ReLU()]
        model = Sequential(*layers)
        for param in model.parameters():
            param.data[...] = rng.standard_normal(
                param.data.shape).astype(np.float32)
        expected = per_key_state(model)
        model.flatten_parameters()
        state = model.state_dict()
        assert list(state) == list(expected)
        for key in expected:
            assert np.array_equal(state[key], expected[key]), key


class TestLayout:
    def test_layouts_interned_per_architecture(self):
        a = small_model(seed=0).flatten_parameters()
        b = small_model(seed=1).flatten_parameters()
        assert a.layout is b.layout

    def test_layout_pickle_preserves_identity(self):
        layout = small_model().flatten_parameters().layout
        assert pickle.loads(pickle.dumps(layout)) is layout

    def test_offsets_partition_storage(self):
        layout = small_model().flatten_parameters().layout
        assert layout.offsets[0] == 0
        assert layout.offsets[-1] == layout.total
        for a, b, size in zip(layout.offsets[:-1], layout.offsets[1:],
                              layout.sizes):
            assert b - a == size

    def test_size_mismatch_rejected(self):
        layout = small_model().flatten_parameters().layout
        with pytest.raises(ValueError, match="elements"):
            FlatState(layout, np.zeros(layout.total + 1, dtype=np.float32))


class TestFlatState:
    def test_pickle_round_trip(self):
        model = small_model()
        model.flatten_parameters()
        state = model.state_dict()
        clone = pickle.loads(pickle.dumps(state))
        assert isinstance(clone, FlatState)
        assert clone.layout is state.layout
        assert np.array_equal(clone.flat, state.flat)

    def test_key_assignment_writes_through(self):
        """A key is never rebound: assigning writes into ``.flat``, and
        a key's shape and the key set are fixed."""
        state = small_model().state_dict()
        key = next(iter(state))
        view = state[key]
        state[key] = np.zeros_like(view)
        assert state[key] is view and not view.any()
        assert not state.flat[:view.size].any()
        with pytest.raises(ValueError, match="shape"):
            state[key] = np.zeros(1, dtype=np.float32)
        with pytest.raises(KeyError):
            state["no.such.key"] = np.zeros(1, dtype=np.float32)
        for remove in (lambda: state.pop(key), lambda: state.__delitem__(key),
                       state.popitem, state.clear):
            with pytest.raises(TypeError):
                remove()
        assert list(state) == list(state.layout.keys)

    def test_common_layout_requires_same_architecture(self):
        a = small_model()
        b = Sequential(Linear(2, 2, np.random.default_rng(0)))
        with pytest.raises(ValueError, match="state 1 has another layout"):
            common_flat_layout([a.state_dict(), b.state_dict()])
        with pytest.raises(TypeError, match="state 0 is a dict"):
            common_flat_layout([dict(a.state_dict())])
        assert common_flat_layout(
            [a.state_dict(), a.state_dict()]) is a.state_dict().layout


class TestGradients:
    def test_backward_lands_in_fused_grads(self):
        rng = np.random.default_rng(0)
        model = Sequential(Linear(4, 8, rng), ReLU(), Linear(8, 3, rng))
        buf = model.flatten_parameters()
        x = rng.standard_normal((2, 4)).astype(np.float32)
        model.train()
        for param in model.parameters():
            param.zero_grad()
        loss = F.cross_entropy(model(Tensor(x)), np.array([1, 2]))
        loss.backward()
        assert buf.grads_ready()
        for param in model.parameters():
            assert param.grad is not None
            assert param.grad.base is buf.grads

    def test_trainable_runs_follow_requires_grad(self):
        """Merged ranges of the parameters that train, recomputed when
        a flag flips; ``grads_ready`` asks only those for a gradient."""
        rng = np.random.default_rng(0)
        model = Sequential(Linear(4, 8, rng), ReLU(), Linear(8, 3, rng))
        buf = model.flatten_parameters()
        offsets = buf.layout.offsets
        assert buf.trainable_runs() == ((0, buf.layout.param_total),)
        weight0, bias0, weight1, bias1 = model.parameters()
        bias0.requires_grad = False
        assert buf.trainable_runs() == ((0, offsets[1]),
                                        (offsets[2], offsets[4]))
        weight0.requires_grad = False       # a frozen "backbone"
        assert buf.trainable_runs() == ((offsets[2], offsets[4]),)
        model.zero_grad()
        x = rng.standard_normal((2, 4)).astype(np.float32)
        F.cross_entropy(model(Tensor(x)), np.array([1, 2])).backward()
        assert weight0.grad is None and bias0.grad is None
        assert buf.grads_ready()
        weight1.grad = weight1.grad.copy()  # left its fused view
        assert not buf.grads_ready()
        for param in model.parameters():
            param.requires_grad = False
        assert buf.trainable_runs() == ()


class TestOneRepresentation:
    def test_registry_models_are_flat_from_construction(self):
        from repro.nn.arena import StepArena
        from repro.nn.flat import PlaneParameter
        arena = StepArena()
        model = build_model("lenet5", num_classes=10, in_channels=1,
                            image_size=28, arena=arena)
        assert model._flat is not None and model._flat.arena is arena
        assert all(isinstance(p, PlaneParameter) for p in model.parameters())
        assert model.flatten_parameters(arena) is model._flat
        with pytest.raises(ValueError, match="another step arena"):
            model.flatten_parameters(StepArena())

    def test_parameter_data_assignment_writes_through(self):
        model = small_model()
        buf = model.flatten_parameters()
        weight = model.parameters()[0]
        view = weight.data
        weight.data = np.full(view.shape, 2.0, dtype=np.float64)
        assert weight.data is view and view.dtype == np.float32
        assert np.all(buf.data[:view.size] == 2.0)
        with pytest.raises(ValueError, match="shape"):
            weight.data = np.zeros(view.size + 1, dtype=np.float32)

    def test_a_parameter_belongs_to_at_most_one_buffer(self):
        inner = small_model()
        with pytest.raises(ValueError, match="already belongs"):
            Sequential(inner, ReLU()).flatten_parameters()

    def test_from_mapping_checks_keys_and_exact_shapes(self):
        model = small_model()
        layout = model.flatten_parameters().layout
        state = model.state_dict()
        assert FlatState.from_mapping(layout, state) is state
        plain = {key: value.copy() for key, value in state.items()}
        converted = FlatState.from_mapping(layout, plain)
        assert converted.layout is layout
        assert np.array_equal(converted.flat, state.flat)
        key = next(iter(plain))
        broadcastable = dict(plain, **{key: np.ones(1, dtype=np.float32)})
        with pytest.raises(ValueError, match=f"{key!r} has shape \\(1,\\)"):
            FlatState.from_mapping(layout, broadcastable)
        with pytest.raises(ValueError, match="missing keys"):
            FlatState.from_mapping(layout, {k: v for k, v in plain.items()
                                            if k != key})
        with pytest.raises(ValueError, match=r"unexpected keys \['x'\]"):
            FlatState.from_mapping(layout, dict(plain, x=np.zeros(1)))
