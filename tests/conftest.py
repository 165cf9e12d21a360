"""Shared fixtures: tiny trained/untrained models and graphs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import build_resnet, build_vgg_like, randomize_batchnorm
from repro.nn import export_model


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


def inject_maxpool_fault(monkeypatch: pytest.MonkeyPatch) -> None:
    """Make max pooling raise a plain ``RuntimeError``: a fault, not a budget abort.

    The fault hits every route a run can take through a max-pool kernel: its
    ``tick`` (engine runs), its ``op_program`` (schedule solves) and its
    ``batch_compute`` (batched outputs).
    """
    from repro.kernels.pooling import MaxPoolKernel

    def fault(self, *args):
        raise RuntimeError("injected max-pool fault")

    for method in ("tick", "op_program", "batch_compute"):
        monkeypatch.setattr(MaxPoolKernel, method, fault)


def make_tiny_chain_model(seed: int = 7):
    """A small conv+pool+fc chain with diverse BatchNorm statistics."""
    model = build_vgg_like(input_size=16, width=0.0625, classes=4, seed=seed)
    randomize_batchnorm(model, np.random.default_rng(seed + 1))
    model.eval()
    return model


def make_tiny_resnet_model(seed: int = 9):
    """A small residual network with one plain and one downsampling block."""
    model = build_resnet(
        input_size=16,
        width=0.0625,
        classes=4,
        stages=[(64, 1, 1), (128, 1, 2)],
        stem_kernel=3,
        stem_stride=1,
        stem_pool=False,
        seed=seed,
    )
    randomize_batchnorm(model, np.random.default_rng(seed + 1))
    model.eval()
    return model


@pytest.fixture(scope="session")
def tiny_chain_model():
    return make_tiny_chain_model()


@pytest.fixture(scope="session")
def tiny_chain_graph(tiny_chain_model):
    return export_model(tiny_chain_model, (16, 16, 3), name="tiny-chain")


@pytest.fixture(scope="session")
def tiny_resnet_model():
    return make_tiny_resnet_model()


@pytest.fixture(scope="session")
def tiny_resnet_graph(tiny_resnet_model):
    return export_model(tiny_resnet_model, (16, 16, 3), name="tiny-resnet")


@pytest.fixture()
def images16(rng):
    return rng.uniform(0.0, 1.0, size=(2, 16, 16, 3))
