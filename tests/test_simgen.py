import math

import numpy as np
import pytest

from gmmfad.model import ComponentParams, MixtureModel
from gmmfad.simgen import (
    WEIGHT_FLOOR,
    SimSpec,
    bayes_misclassification_rate,
    draw_truth,
    sample_dataset,
)

from .helpers import dense_covariance


def test_spec_validation():
    SimSpec(n=100, p=10, n_components=2, factor_spec=2).validate()
    with pytest.raises(ValueError):
        # n below K * (max q + 2)
        SimSpec(n=7, p=10, n_components=2, factor_spec=2).validate()
    with pytest.raises(ValueError):
        # q above the admissibility bound at p=10
        SimSpec(n=100, p=10, n_components=2, factor_spec=6).validate()


def test_draw_truth_deterministic():
    spec = SimSpec(n=100, p=8, n_components=3, factor_spec=(2, 1, 2), seed=7)
    a = draw_truth(spec)
    b = draw_truth(spec)
    for ca, cb in zip(a.components, b.components):
        assert ca.weight == cb.weight
        np.testing.assert_array_equal(ca.mean, cb.mean)
        np.testing.assert_array_equal(ca.loadings, cb.loadings)
        np.testing.assert_array_equal(ca.uniquenesses, cb.uniquenesses)


def test_truth_weights_floor_and_sum():
    # flooring happens before the final renormalization, so the guaranteed
    # lower bound is floor / (1 + K * floor), not the floor itself
    k = 3
    lower = WEIGHT_FLOOR / (1 + k * WEIGHT_FLOOR)
    for seed in range(1000):
        spec = SimSpec(n=100, p=6, n_components=k, factor_spec=1, seed=seed)
        model = draw_truth(spec)
        weights = [c.weight for c in model.components]
        assert math.isclose(math.fsum(weights), 1.0, abs_tol=1e-12)
        assert min(weights) >= lower - 1e-12


def test_single_component_weight_is_one():
    model = draw_truth(SimSpec(n=50, p=5, n_components=1, factor_spec=1, seed=3))
    assert model.components[0].weight == 1.0


def test_truth_parameter_ranges():
    model = draw_truth(SimSpec(n=100, p=12, n_components=2, factor_spec=3,
                               separation=2.0, seed=11))
    for comp in model.components:
        assert np.all(comp.uniquenesses >= 0.2 - 1e-12)
        assert np.all(comp.uniquenesses <= 0.8 + 1e-12)
        assert comp.loadings.shape == (12, 3)


def test_separation_scales_means():
    base = draw_truth(SimSpec(n=100, p=6, n_components=2, factor_spec=1,
                              separation=1.0, seed=5))
    wide = draw_truth(SimSpec(n=100, p=6, n_components=2, factor_spec=1,
                              separation=3.0, seed=5))
    for cb, cw in zip(base.components, wide.components):
        np.testing.assert_allclose(cw.mean, 3.0 * cb.mean, rtol=1e-12)
        np.testing.assert_array_equal(cw.loadings, cb.loadings)


# ------------------------------------------------------------- sample_dataset


def test_sampling_deterministic():
    model = draw_truth(SimSpec(n=100, p=5, n_components=2, factor_spec=1, seed=1))
    a = sample_dataset(model, 200, seed=9)
    b = sample_dataset(model, 200, seed=9)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_labels_are_valid_codes():
    model = draw_truth(SimSpec(n=100, p=5, n_components=3, factor_spec=1, seed=2))
    data = sample_dataset(model, 500, seed=4)
    assert data.labels.min() >= 0
    assert data.labels.max() < 3


def test_sample_draws_every_component_in_order_with_empty_shapes():
    # a q = 0 component, one that draws no rows, then a q = 1 component: the
    # sample is the explicit redraw in component order, empty shapes included
    rng = np.random.default_rng(5)
    p = 5
    weights = np.array([0.5, 0.001, 0.499])
    model = MixtureModel(components=tuple(
        ComponentParams(weight=w, mean=rng.standard_normal(p),
                        loadings=rng.standard_normal((p, q)),
                        uniquenesses=rng.uniform(0.2, 0.8, p))
        for w, q in zip(weights, (0, 2, 1))
    ))
    n = 30
    data = sample_dataset(model, n, seed=3)
    assert np.bincount(data.labels, minlength=3)[1] == 0
    assert np.all(np.bincount(data.labels, minlength=3)[[0, 2]] > 0)

    redraw = np.random.Generator(np.random.Philox(3))
    labels = redraw.choice(3, size=n, p=weights / weights.sum())
    y = np.empty((n, p))
    for k, comp in enumerate(model.components):
        idx = np.flatnonzero(labels == k)
        scores = redraw.standard_normal((idx.size, comp.n_factors))
        noise = redraw.standard_normal((idx.size, p)) * np.sqrt(comp.uniquenesses)
        y[idx] = comp.mean + noise + scores @ comp.loadings.T
    np.testing.assert_array_equal(data.labels, labels)
    np.testing.assert_array_equal(data.values, y)


def test_isotropic_noise_moments():
    # K=1, Lambda=0, Psi=I, mu=0: sample mean -> 0 and covariance -> I
    model = MixtureModel(components=(
        ComponentParams(weight=1.0, mean=np.zeros(4),
                        loadings=np.zeros((4, 0)), uniquenesses=np.ones(4)),
    ))
    data = sample_dataset(model, 100_000, seed=12)
    assert np.max(np.abs(data.values.mean(axis=0))) < 0.05
    cov = np.cov(data.values.T)
    assert np.max(np.abs(cov - np.eye(4))) < 0.05


def test_per_component_covariance_matches_truth():
    model = draw_truth(SimSpec(n=100, p=5, n_components=2, factor_spec=2,
                               separation=4.0, seed=21))
    data = sample_dataset(model, 100_000, seed=22)
    for k, comp in enumerate(model.components):
        rows = data.values[data.labels == k]
        emp = np.cov(rows.T)
        assert np.max(np.abs(emp - dense_covariance(comp))) < 0.1


def test_label_frequencies_match_weights():
    model = draw_truth(SimSpec(n=100, p=5, n_components=3, factor_spec=1, seed=31))
    n = 40_000
    data = sample_dataset(model, n, seed=32)
    for k, comp in enumerate(model.components):
        freq = float(np.mean(data.labels == k))
        assert abs(freq - comp.weight) < 3.0 / math.sqrt(n)


def test_bayes_rate_decreases_with_separation():
    spec_lo = SimSpec(n=100, p=6, n_components=2, factor_spec=1,
                      separation=0.5, seed=41)
    spec_hi = SimSpec(n=100, p=6, n_components=2, factor_spec=1,
                      separation=5.0, seed=41)
    rate_lo = bayes_misclassification_rate(draw_truth(spec_lo), n=5000, seed=1)
    rate_hi = bayes_misclassification_rate(draw_truth(spec_hi), n=5000, seed=1)
    assert rate_hi < rate_lo
    assert rate_hi < 0.01
