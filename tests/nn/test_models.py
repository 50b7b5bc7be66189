"""Model zoo: shapes, scaling, trainability, registry, freezing."""

import numpy as np
import pytest

from repro.nn import SGD, Tensor
from repro.nn import functional as F
from repro.nn.models import (MODEL_REGISTRY, LeNet5, MobileNetV1, ResNet18,
                             ResNet50, VGG11, build_model)

RNG = np.random.default_rng(0)


def one_step(model, x, y, lr=0.05):
    model.flatten_parameters()      # built by its class, not build_model
    model.train()
    logits = model(Tensor(x))
    loss = F.cross_entropy(logits, y)
    loss.backward()
    SGD(model.parameters(), lr=lr).step()
    return loss.item(), logits


class TestShapes:
    @pytest.mark.parametrize("cls,channels,size", [
        (VGG11, 3, 16), (ResNet18, 3, 16), (ResNet50, 3, 16),
        (MobileNetV1, 3, 16),
    ])
    def test_rgb_models_output_shape(self, cls, channels, size):
        model = cls(num_classes=7, in_channels=channels, image_size=size,
                    width=0.2, seed=0)
        x = RNG.standard_normal((3, channels, size, size)).astype(np.float32)
        assert model(Tensor(x)).shape == (3, 7)

    def test_lenet_shape(self):
        model = LeNet5(num_classes=10, in_channels=1, image_size=28,
                       width=0.5, seed=0)
        x = RNG.standard_normal((2, 1, 28, 28)).astype(np.float32)
        assert model(Tensor(x)).shape == (2, 10)

    def test_vgg_small_image_drops_pools(self):
        model = VGG11(num_classes=4, image_size=8, width=0.2, seed=0)
        x = RNG.standard_normal((1, 3, 8, 8)).astype(np.float32)
        assert model(Tensor(x)).shape == (1, 4)


class TestWidthScaling:
    def test_width_changes_parameter_count(self):
        small = VGG11(width=0.25, seed=0).num_parameters()
        big = VGG11(width=0.5, seed=0).num_parameters()
        assert big > 2 * small

    def test_full_width_parameter_counts_match_profiles(self):
        """The cluster cost model's payload sizes reflect the real zoo."""
        from repro.cluster.spec import MODEL_PROFILES
        model = VGG11(num_classes=10, image_size=32, width=1.0, seed=0)
        assert model.num_parameters() == MODEL_PROFILES["vgg11"].params

    def test_resnet18_profile_params(self):
        from repro.cluster.spec import MODEL_PROFILES
        model = ResNet18(num_classes=10, width=1.0, seed=0)
        assert model.num_parameters() == MODEL_PROFILES["resnet18"].params


class TestTrainability:
    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_loss_decreases_on_memorized_batch(self, name):
        channels = 1 if name == "lenet5" else 3
        size = 12
        model = build_model(name, num_classes=4, in_channels=channels,
                            image_size=size, width=0.2, seed=0)
        x = RNG.standard_normal((8, channels, size, size)).astype(np.float32)
        y = np.array([0, 1, 2, 3] * 2)
        first, _ = one_step(model, x, y)
        for _ in range(12):
            last, _ = one_step(model, x, y)
        assert last < first


class TestRegistry:
    def test_unknown_model_raises(self):
        with pytest.raises(ValueError, match="unknown model"):
            build_model("alexnet")

    def test_all_registry_entries_construct(self):
        for name in MODEL_REGISTRY:
            channels = 1 if name == "lenet5" else 3
            model = build_model(name, num_classes=3, in_channels=channels,
                                image_size=12, width=0.15, seed=1)
            assert model.num_parameters() > 0


class TestTransferLearning:
    def test_freeze_backbone_blocks_feature_grads(self):
        model = ResNet50(num_classes=5, width=0.15, seed=0)
        model.freeze_backbone()
        x = RNG.standard_normal((2, 3, 12, 12)).astype(np.float32)
        loss, _ = one_step(model, x, np.array([0, 1]))
        stem_params = [p for _, p in model.stem.named_parameters()]
        assert all(p.grad is None for p in stem_params)
        head_params = [p for _, p in model.fc.named_parameters()]
        assert all(p.grad is not None for p in head_params)

    def test_frozen_backbone_weights_do_not_move(self):
        model = ResNet50(num_classes=5, width=0.15, seed=0)
        model.freeze_backbone()
        before = model.stem._modules["0"].weight.data.copy()
        x = RNG.standard_normal((4, 3, 12, 12)).astype(np.float32)
        for _ in range(3):
            one_step(model, x, np.array([0, 1, 2, 3]))
        np.testing.assert_allclose(model.stem._modules["0"].weight.data,
                                   before)

    def test_head_weights_move_when_frozen(self):
        model = ResNet50(num_classes=5, width=0.15, seed=0)
        model.freeze_backbone()
        before = model.fc.weight.data.copy()
        x = RNG.standard_normal((4, 3, 12, 12)).astype(np.float32)
        one_step(model, x, np.array([0, 1, 2, 3]))
        assert not np.allclose(model.fc.weight.data, before)
