"""Loss models, gradient oracles, diversity, and estimators."""

import math

import numpy as np
import pytest

from fedunlab.data import generate_synthetic
from fedunlab.errors import DivergedDiversityError, InvalidArgumentError
from fedunlab.losses import (
    LogisticLoss,
    QuadraticLoss,
    check_lr_condition,
    estimate_grad_bound,
    estimate_smoothness,
    full_local_grad,
    global_grad,
    global_loss,
    gradient_diversity,
    make_loss,
    stability_curvature_ratio,
    suggest_learning_rate,
)


def finite_diff_grad(fn, theta, eps=1e-6):
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        down = theta.copy()
        up[i] += eps
        down[i] -= eps
        grad[i] = (fn(up) - fn(down)) / (2 * eps)
    return grad


def _one_row(x):
    """A single point as a batch of one row."""
    return np.atleast_2d(x)


def test_quadratic_point_values():
    loss = QuadraticLoss(2)
    theta = np.array([1.0, -2.0])
    x = np.array([3.0, 0.5])
    # z = 3 - 1 = 2, label 1 -> loss = 0.5
    assert loss.mean_loss(theta, _one_row(x), np.array([1.0])) == pytest.approx(0.5)
    np.testing.assert_allclose(
        loss.mean_grad(theta, _one_row(x), np.array([1.0])), (2.0 - 1.0) * x
    )


def test_logistic_point_values():
    loss = LogisticLoss(2)
    theta = np.zeros(2)
    x = np.array([1.0, 1.0])
    # z = 0: loss = log 2 regardless of label, grad = (sigma(0) - y) x
    assert loss.mean_loss(theta, _one_row(x), np.array([1.0])) == pytest.approx(math.log(2.0))
    np.testing.assert_allclose(loss.mean_grad(theta, _one_row(x), np.array([0.0])), 0.5 * x)
    np.testing.assert_allclose(loss.mean_grad(theta, _one_row(x), np.array([1.0])), -0.5 * x)


def test_logistic_rejects_other_labels():
    loss = LogisticLoss(1)
    with pytest.raises(InvalidArgumentError):
        loss.mean_loss(np.zeros(1), _one_row(np.ones(1)), np.array([2.0]))


@pytest.mark.parametrize("method", ["mean_grad", "mean_loss"])
def test_logistic_batch_names_its_first_bad_label(method):
    loss = LogisticLoss(2)
    features = np.ones((5, 2))
    labels = np.array([0.0, 1.0, 0.5, 1.0, 3.0])
    with pytest.raises(InvalidArgumentError, match=r"got 0\.5$"):
        getattr(loss, method)(np.zeros(2), features, labels)
    labels[2] = np.nan
    with pytest.raises(InvalidArgumentError, match=r"got nan$"):
        getattr(loss, method)(np.zeros(2), features, labels)
    labels[[2, 4]] = 1.0
    getattr(loss, method)(np.zeros(2), features, labels)


def test_logistic_stable_at_extreme_scores():
    loss = LogisticLoss(1)
    theta = np.array([50.0])
    x = _one_row(np.array([1.0]))
    assert loss.mean_loss(theta, x, np.array([1.0])) == pytest.approx(0.0, abs=1e-20)
    assert loss.mean_loss(theta, x, np.array([0.0])) == pytest.approx(50.0)
    assert np.isfinite(loss.mean_grad(-theta, x, np.array([1.0]))).all()


@pytest.mark.parametrize("name", ["quadratic", "logistic"])
def test_gradients_match_finite_differences(name):
    """20 random one-row probes per loss model, 1e-5 relative tolerance."""
    rng = np.random.default_rng(17)
    dim = 4
    loss = make_loss(name, dim)
    for _ in range(20):
        theta = rng.normal(size=dim)
        x = _one_row(rng.normal(size=dim))
        label = np.array([float(rng.integers(0, 2))])
        grad = loss.mean_grad(theta, x, label)
        numeric = finite_diff_grad(lambda t: loss.mean_loss(t, x, label), theta)
        scale = max(1.0, float(np.linalg.norm(numeric)))
        assert np.linalg.norm(grad - numeric) / scale < 1e-5


@pytest.mark.parametrize("name", ["quadratic", "logistic"])
def test_mean_grad_matches_point_grads(name):
    rng = np.random.default_rng(3)
    loss = make_loss(name, 3)
    theta = rng.normal(size=3)
    features = rng.normal(size=(6, 3))
    labels = rng.integers(0, 2, size=6).astype(float)
    stacked = np.mean(
        [loss.mean_grad(theta, features[i : i + 1], labels[i : i + 1]) for i in range(6)],
        axis=0,
    )
    np.testing.assert_allclose(loss.mean_grad(theta, features, labels), stacked,
                               rtol=1e-12, atol=1e-12)


def test_global_grad_is_client_mean():
    dataset = generate_synthetic(
        num_clients=3, samples_per_client=4, dim=2, classes=2, beta=0.5, seed=1
    )
    loss = make_loss("quadratic", 2)
    theta = np.array([0.3, -0.7])
    per_client = [full_local_grad(loss, theta, c) for c in dataset.clients]
    np.testing.assert_allclose(
        global_grad(loss, theta, dataset), np.mean(per_client, axis=0)
    )
    assert global_loss(loss, theta, dataset) > 0


def test_gradient_diversity_oracles():
    assert gradient_diversity([np.array([1.0, 0.0]), np.array([0.0, 1.0])]) \
        == pytest.approx(2.0)
    same = np.array([0.5, -1.0])
    assert gradient_diversity([same, same, same]) == pytest.approx(1.0)


def test_gradient_diversity_lower_bound():
    rng = np.random.default_rng(5)
    for _ in range(50):
        grads = [rng.normal(size=3) for _ in range(4)]
        if np.linalg.norm(np.mean(grads, axis=0)) < 1e-6:
            continue
        assert gradient_diversity(grads) >= 1.0 - 1e-9


def test_gradient_diversity_diverges_on_zero_mean():
    g = np.array([1.0, 0.0])
    with pytest.raises(DivergedDiversityError):
        gradient_diversity([g, -g])


def test_lr_condition_margin_oracle():
    # -1/2 + 1*1*10*9 + 1*1/2 = 90 exactly
    ok, margin = check_lr_condition(1.0, 1.0, 1.0, 10)
    assert not ok
    assert margin == pytest.approx(90.0)
    ok_small, margin_small = check_lr_condition(1e-3, 1.0, 1.0, 10)
    assert ok_small and margin_small < 0


def test_lr_condition_single_local_step_reduces_to_quadratic_terms():
    # E=1 kills the E(E-1) term: margin = -eta/2 + eta^2 L lambda / 2
    _, margin = check_lr_condition(0.5, 2.0, 3.0, 1)
    assert margin == pytest.approx(-0.25 + 0.125 * 2.0 * 3.0)


def test_estimate_smoothness_quadratic_exact():
    """For least squares the exact global smoothness is the top
    eigenvalue of the mean outer-product matrix."""
    dataset = generate_synthetic(
        num_clients=4, samples_per_client=10, dim=3, classes=2, beta=0.5, seed=9
    )
    loss = make_loss("quadratic", 3)
    per_client = []
    for client in dataset.clients:
        x = client.features_matrix
        per_client.append(x.T @ x / x.shape[0])
    hessian = np.mean(per_client, axis=0)
    expected = float(np.linalg.eigvalsh(hessian)[-1])
    estimate = estimate_smoothness(loss, dataset, seed=1)
    assert estimate == pytest.approx(expected, rel=0.05)


def test_estimate_grad_bound_positive_and_scales():
    dataset = generate_synthetic(
        num_clients=3, samples_per_client=8, dim=2, classes=2, beta=0.5, seed=4
    )
    loss = make_loss("quadratic", 2)
    bound = estimate_grad_bound(loss, dataset, batch_size=2, seed=0)
    assert bound > 0 and math.isfinite(bound)


def test_curvature_ratio_and_lr_suggestion_formulas():
    ratio = stability_curvature_ratio(
        grad_bound=2.0, smoothness=4.0, loss_gap=0.5,
        rho_sample=0.25, num_clients=10, samples_per_client=20,
    )
    assert ratio == pytest.approx(4.0 / (4.0 * 0.5 * 0.25 * 10 * 20))
    lr = suggest_learning_rate(smoothness=4.0, curvature_ratio=ratio, total_steps=100)
    assert lr == pytest.approx(1.0 / (4.0 * math.sqrt(ratio) * 100))


def test_make_loss_rejects_unknown():
    with pytest.raises(InvalidArgumentError):
        make_loss("hinge", 2)
