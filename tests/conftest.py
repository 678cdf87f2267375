import numpy as np
import pytest

from modfeat import data as dat
from modfeat.modulator import ModulationMatrix, variance_init
from modfeat.network import ExtractorConfig, Model
from modfeat.prototypes import build_bank


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_tiny_model(
    num_classes=2, input_dim=3, hidden=(5,), feature_dim=4, dropout_p=0.05, seed=7
):
    cfg = ExtractorConfig(
        input_dim=input_dim,
        hidden_dims=hidden,
        feature_dim=feature_dim,
        dropout_p=dropout_p,
    )
    return Model.init(cfg, num_classes, np.random.default_rng(seed))


def make_tiny_setup(num_classes=2, input_dim=3, feature_dim=4, seed=7, n_per_class=3):
    """Model + labeled features + modulation + prototype bank."""
    model = make_tiny_model(
        num_classes=num_classes,
        input_dim=input_dim,
        feature_dim=feature_dim,
        seed=seed,
    )
    g = np.random.default_rng(seed + 1)
    x = g.normal(size=(num_classes * n_per_class, input_dim))
    y = np.repeat(np.arange(num_classes), n_per_class)
    feats = model.extractor.forward(x).value
    modulation = ModulationMatrix.from_values(variance_init(feats, y, num_classes))
    bank = build_bank(feats, y, num_classes)
    return model, modulation, bank, x, y


@pytest.fixture(scope="session")
def small_dataset():
    return dat.generate_synthetic(
        num_classes=3,
        num_domains=3,
        signal_dim=4,
        noise_dim=4,
        samples_per_class_per_domain=30,
        class_sep=3.0,
        domain_shift=4.0,
        seed=11,
        bias_jitter=0.2,
    )


@pytest.fixture(scope="session")
def small_split(small_dataset):
    return dat.split(small_dataset, dat.SplitPlan(target_domain=0, labels_per_class=4, seed=5))
