"""Tests for trainable modules and the QAT training loop."""

import numpy as np
import pytest

from repro.datasets import make_dataset
from repro.models import build_vgg_like
from repro.nn import (
    Adam,
    BatchNorm2d,
    QActivation,
    QConv2d,
    QLinear,
    SGD,
    Sequential,
    SignActivation,
    Tensor,
)
from repro.nn.training import evaluate, iterate_minibatches, train

RNG = np.random.default_rng(5)


class TestModuleBasics:
    def test_parameter_discovery(self):
        m = Sequential(QConv2d(3, 4, 3), BatchNorm2d(4), QActivation())
        names = [p.name for p in m.parameters()]
        assert len(names) == 3  # conv weight + bn gamma + bn beta

    def test_train_eval_propagates(self):
        m = Sequential(QConv2d(3, 4, 3), BatchNorm2d(4))
        m.eval()
        assert all(not mod.training for mod in m.modules())
        m.train()
        assert all(mod.training for mod in m.modules())

    def test_zero_grad(self):
        m = Sequential(QLinear(4, 2))
        out = m(Tensor(RNG.normal(size=(3, 4))))
        out.backward(np.ones((3, 2)))
        assert next(m.parameters()).grad is not None
        m.zero_grad()
        assert next(m.parameters()).grad is None

    def test_sequential_indexing(self):
        layers = [QLinear(4, 4), QLinear(4, 2)]
        m = Sequential(*layers)
        assert m[0] is layers[0] and list(m) == layers


class TestQConv2d:
    def test_binary_forward_uses_signs(self):
        conv = QConv2d(1, 1, 1, binary=True)
        conv.weight.data[:] = 0.3
        x = Tensor(np.ones((1, 2, 2, 1)))
        assert np.allclose(conv(x).data, 1.0)  # sign(0.3) = +1

    def test_non_binary_forward(self):
        conv = QConv2d(1, 1, 1, binary=False)
        conv.weight.data[:] = 0.3
        x = Tensor(np.ones((1, 2, 2, 1)))
        assert np.allclose(conv(x).data, 0.3)

    def test_output_shape(self):
        conv = QConv2d(3, 8, 3, stride=2, pad=1)
        out = conv(Tensor(RNG.normal(size=(2, 8, 8, 3))))
        assert out.data.shape == (2, 4, 4, 8)


class TestBatchNorm2d:
    def test_training_normalises(self):
        bn = BatchNorm2d(4)
        x = Tensor(RNG.normal(loc=5.0, scale=3.0, size=(2, 6, 6, 4)))
        out = bn(x)
        assert abs(out.data.mean()) < 1e-6
        assert abs(out.data.std() - 1.0) < 1e-2

    def test_eval_uses_running_stats(self):
        bn = BatchNorm2d(2)
        bn.running_mean[:] = [1.0, -1.0]
        bn.running_var[:] = [4.0, 0.25]
        bn.eval()
        x = Tensor(np.zeros((1, 1, 1, 2)))
        out = bn(x)
        assert np.allclose(out.data[0, 0, 0], [-0.5, 2.0], atol=1e-3)


class TestActivations:
    def test_qactivation_levels(self):
        act = QActivation(bits=2, d=0.5)
        x = Tensor(np.array([[-1.0, 0.3, 0.8, 5.0]]))
        assert np.allclose(act(x).data, [[0.25, 0.25, 0.75, 1.75]])

    def test_sign_activation(self):
        act = SignActivation()
        x = Tensor(np.array([[-0.5, 0.5]]))
        assert act(x).data.tolist() == [[-1.0, 1.0]]

    def test_bits_attribute(self):
        assert QActivation(bits=2).bits == 2
        assert SignActivation().bits == 1


class TestOptimizers:
    def test_sgd_descends_quadratic(self):
        from repro.nn.modules import Parameter

        p = Parameter(np.array([5.0]), name="p")
        opt = SGD([p], lr=0.1, clip=None)
        for _ in range(50):
            opt.zero_grad()
            p.grad = 2 * p.data
            opt.step()
        assert abs(p.data[0]) < 0.1

    def test_adam_descends_quadratic(self):
        from repro.nn.modules import Parameter

        p = Parameter(np.array([5.0]), name="p")
        opt = Adam([p], lr=0.3, clip=None)
        for _ in range(100):
            opt.zero_grad()
            p.grad = 2 * p.data
            opt.step()
        assert abs(p.data[0]) < 0.2

    def test_weight_clipping(self):
        from repro.nn.modules import Parameter

        p = Parameter(np.array([0.99]), name="m.weight")
        opt = SGD([p], lr=1.0, clip=1.0)
        p.grad = np.array([-10.0])
        opt.step()
        assert p.data[0] == 1.0  # clipped at +1

    def test_momentum_accumulates(self):
        from repro.nn.modules import Parameter

        p = Parameter(np.array([0.0]), name="p")
        opt = SGD([p], lr=0.1, momentum=0.9, clip=None)
        for _ in range(3):
            opt.zero_grad()
            p.grad = np.array([1.0])
            opt.step()
        # with momentum the third step is larger than lr * grad
        assert p.data[0] < -0.3


class TestMinibatches:
    def test_covers_all_samples(self):
        x = np.arange(10)[:, None]
        y = np.arange(10)
        seen = []
        for xb, yb in iterate_minibatches(x, y, 3, np.random.default_rng(0)):
            seen.extend(yb.tolist())
        assert sorted(seen) == list(range(10))


class TestTraining:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_dataset("cifar10-like", n_train=160, n_test=80, classes=3, size=16, seed=2)

    def test_loss_decreases(self, dataset):
        model = build_vgg_like(input_size=16, width=0.0625, classes=3, seed=0)
        result = train(model, dataset.x_train, dataset.y_train, epochs=4, batch_size=32, lr=3e-3)
        assert result.losses[-1] < result.losses[0]

    def test_accuracy_above_chance(self, dataset):
        model = build_vgg_like(input_size=16, width=0.125, classes=3, seed=1)
        train(model, dataset.x_train, dataset.y_train, epochs=6, batch_size=32, lr=3e-3, seed=1)
        acc = evaluate(model, dataset.x_test, dataset.y_test)
        assert acc > 1.0 / 3.0 + 0.1, f"accuracy {acc} not above chance"

    def test_validation_history(self, dataset):
        model = build_vgg_like(input_size=16, width=0.0625, classes=3, seed=2)
        result = train(
            model,
            dataset.x_train,
            dataset.y_train,
            dataset.x_test,
            dataset.y_test,
            epochs=2,
            batch_size=32,
        )
        assert len(result.val_accuracies) == 2
        assert result.final_val_accuracy == result.val_accuracies[-1]

    def test_shadow_weights_stay_clipped(self, dataset):
        model = build_vgg_like(input_size=16, width=0.0625, classes=3, seed=3)
        train(model, dataset.x_train[:64], dataset.y_train[:64], epochs=2, batch_size=32, lr=0.05)
        for p in model.parameters():
            if p.name.endswith(".weight"):
                assert np.abs(p.data).max() <= 1.0 + 1e-12
