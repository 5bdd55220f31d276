"""Loss models, gradient oracles, and smoothness diagnostics.

Two concrete losses are provided: a linear-regression quadratic and a
binary logistic loss. Both expose the mean loss and the mean gradient
over a mini-batch given as a feature matrix and a label vector; a single
point is a batch of one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import ClientDataset, FederatedDataset
from .errors import DivergedDiversityError, InvalidArgumentError
from .streams import DOMAIN_PROBE, substream

DIVERSITY_EPS = 1e-12
_LABELS = frozenset((0.0, 1.0))  # the logistic loss's label set


class LossModel:
    """Interface for a smooth loss over models in R^dim, averaged over a batch."""

    name: str  # what make_loss builds it from
    dim: int

    def mean_loss(self, theta: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
        raise NotImplementedError

    def mean_grad(self, theta: np.ndarray, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass
class QuadraticLoss(LossModel):
    """Least squares: loss(theta; x, y) = 0.5 * (x . theta - y)^2."""

    name = "quadratic"
    dim: int

    def mean_loss(self, theta, features, labels):
        residuals = features @ theta - labels
        return 0.5 * float(residuals @ residuals) / len(labels)

    def mean_grad(self, theta, features, labels):
        residuals = features @ theta - labels
        return (features.T @ residuals) / len(labels)


@dataclass
class LogisticLoss(LossModel):
    """Binary logistic regression with labels in {0, 1}.

    loss(theta; x, y) = softplus(x . theta) - y * (x . theta)
    """

    name = "logistic"
    dim: int

    @staticmethod
    def _check_labels(labels: np.ndarray) -> None:
        """Raise for the first label outside {0, 1}."""
        values = labels.tolist()
        if not _LABELS.issuperset(values):
            for label in map(float, values):
                if label not in (0.0, 1.0):
                    raise InvalidArgumentError(
                        f"logistic loss needs labels in {{0, 1}}, got {label}"
                    )

    def mean_loss(self, theta, features, labels):
        self._check_labels(labels)
        z = features @ theta
        # log(1 + exp(z)) computed stably for large |z|
        softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        return float(np.mean(softplus - labels * z))

    def mean_grad(self, theta, features, labels):
        self._check_labels(labels)
        z = features @ theta
        sigma = 0.5 * (1.0 + np.tanh(0.5 * z))
        return (features.T @ (sigma - labels)) / len(labels)


def make_loss(name: str, dim: int) -> LossModel:
    if name == "quadratic":
        return QuadraticLoss(dim=dim)
    if name == "logistic":
        return LogisticLoss(dim=dim)
    raise InvalidArgumentError(f"unknown loss {name!r}")


def full_local_grad(loss: LossModel, theta: np.ndarray, client: ClientDataset) -> np.ndarray:
    """Exact gradient of one client's empirical loss."""
    if client.size == 0:
        raise InvalidArgumentError(f"client {client.client_id} has no points")
    return loss.mean_grad(theta, client.features_matrix, client.labels_vector)


def global_grad(loss: LossModel, theta: np.ndarray, dataset: FederatedDataset) -> np.ndarray:
    """Gradient of the federation objective: the unweighted mean of the
    per-client empirical gradients."""
    acc = np.zeros(loss.dim)
    for client in dataset.clients:
        acc += full_local_grad(loss, theta, client)
    return acc / dataset.num_clients


def global_loss(loss: LossModel, theta: np.ndarray, dataset: FederatedDataset) -> float:
    total = 0.0
    for client in dataset.clients:
        total += loss.mean_loss(theta, client.features_matrix, client.labels_vector)
    return total / dataset.num_clients


def gradient_diversity(local_grads: Sequence[np.ndarray]) -> float:
    """Ratio of mean squared gradient norm to squared mean gradient norm.

    Always >= 1, with equality iff all gradients coincide. Raises when
    the mean gradient is numerically zero, since the ratio diverges.
    """
    if not local_grads:
        raise InvalidArgumentError("need at least one gradient")
    grads = np.stack(local_grads)
    mean = grads.mean(axis=0)
    mean_sq = float(mean @ mean)
    if mean_sq < DIVERSITY_EPS:
        raise DivergedDiversityError(
            f"mean gradient norm^2 {mean_sq:.3e} below {DIVERSITY_EPS:g}"
        )
    avg_norm_sq = float(np.mean(np.einsum("ij,ij->i", grads, grads)))
    return avg_norm_sq / mean_sq


def check_lr_condition(lr: float, smoothness: float, diversity: float, local_steps: int) -> tuple[bool, float]:
    """Evaluate the per-step descent condition margin

        -lr/2 + lr^3 * L^2 * diversity * E * (E - 1) + lr^2 * diversity * L / 2

    which must be negative for the drift/noise terms not to swamp the
    descent term. With local_steps = 1 it reduces to lr * diversity * L < 1.
    """
    margin = (
        -lr / 2.0
        + lr**3 * smoothness**2 * diversity * local_steps * (local_steps - 1)
        + lr**2 * diversity * smoothness / 2.0
    )
    return margin < 0.0, margin


def estimate_smoothness(
    loss: LossModel,
    dataset: FederatedDataset,
    *,
    probes: int = 12,
    power_iters: int = 30,
    seed: int = 0,
) -> float:
    """Estimate the Lipschitz constant of the global gradient.

    Maximizes the gradient-difference ratio over probe pairs; each probe
    direction is refined by power iteration on the gradient map, which
    for a quadratic converges to the top eigenvalue of the empirical
    second-moment matrix.
    """
    rng = substream(seed, DOMAIN_PROBE, 1)
    best = 0.0
    for _ in range(probes):
        base = rng.normal(size=loss.dim)
        direction = rng.normal(size=loss.dim)
        direction /= np.linalg.norm(direction)
        step = 1e-3
        for _ in range(power_iters):
            g_plus = global_grad(loss, base + step * direction, dataset)
            g_base = global_grad(loss, base, dataset)
            delta = (g_plus - g_base) / step
            norm = float(np.linalg.norm(delta))
            if norm < 1e-15:
                break
            best = max(best, norm)
            direction = delta / norm
    if best == 0.0:
        raise InvalidArgumentError("flat objective: smoothness estimate is zero")
    return best


def estimate_grad_bound(
    loss: LossModel,
    dataset: FederatedDataset,
    *,
    batch_size: int,
    probes: int = 8,
    batches_per_probe: int = 16,
    seed: int = 0,
) -> float:
    """Estimate the mini-batch deviation constant G from

        E || batch_grad - local_grad ||^2 <= G^2 / batch_size

    by empirical per-client batch variance. This is an estimate used for
    learning-rate suggestion and reporting only.
    """
    rng = substream(seed, DOMAIN_PROBE, 2)
    worst = 0.0
    for _ in range(probes):
        theta = rng.normal(size=loss.dim)
        for client in dataset.clients:
            if client.size < batch_size:
                continue
            local = full_local_grad(loss, theta, client)
            acc = 0.0
            for _ in range(batches_per_probe):
                rows = rng.choice(client.size, size=batch_size, replace=False)
                g = loss.mean_grad(
                    theta, client.features_matrix[rows], client.labels_vector[rows]
                )
                diff = g - local
                acc += float(diff @ diff)
            worst = max(worst, acc / batches_per_probe * batch_size)
    return math.sqrt(worst) if worst > 0 else 1.0


def stability_curvature_ratio(
    *,
    grad_bound: float,
    smoothness: float,
    loss_gap: float,
    rho_sample: float,
    num_clients: int,
    samples_per_client: int,
) -> float:
    """Dimensionless ratio used by the learning-rate rule:

        G^2 / (L * (F(theta0) - F*) * rho_sample * M * N)
    """
    denom = smoothness * loss_gap * rho_sample * num_clients * samples_per_client
    if denom <= 0:
        raise InvalidArgumentError("loss gap, smoothness and budgets must be positive")
    return grad_bound**2 / denom


def suggest_learning_rate(*, smoothness: float, curvature_ratio: float, total_steps: int) -> float:
    """lr = 1 / (L * sqrt(ratio) * T), the rate that balances the descent
    and noise terms under the stability budget."""
    if smoothness <= 0 or curvature_ratio <= 0 or total_steps < 1:
        raise InvalidArgumentError("need positive smoothness, ratio, steps")
    return 1.0 / (smoothness * math.sqrt(curvature_ratio) * total_steps)
