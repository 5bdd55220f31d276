"""Federated dataset model, synthetic generation, and deletion surgery.

A federation is a fixed set of clients, each holding its points as
columns (uids, feature matrix, labels) in a fixed order, with globally
unique integer uids. Deletion operations return new dataset objects that
share every untouched client; uids of surviving points never change,
which is what lets recorded mini-batches be replayed after a deletion.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (
    EmptyFederationError,
    InfeasibleBudgetError,
    InvalidArgumentError,
    NotFoundError,
)
from .streams import DOMAIN_DATA, substream

FULL_HISTORY = "full_history"
COMPACT = "compact"
STORAGE_MODES = (FULL_HISTORY, COMPACT)


class DataPoint(NamedTuple):
    """One point of a client, read out of its columns: the uid, the
    feature row (a read-only view) and the label."""

    uid: int
    features: np.ndarray
    label: float


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class ClientDataset:
    """One client's points as columns, in the client's order: a uid
    array, a read-only feature matrix with one row per point and a
    label vector. The uid tuple, the uid -> row index and the digest are
    computed on first use and cached; a client never changes."""

    client_id: int
    uid_array: np.ndarray
    features_matrix: np.ndarray
    labels_vector: np.ndarray

    def __post_init__(self) -> None:
        uids = np.asarray(self.uid_array)
        if uids.size and uids.dtype.kind not in "iu":
            raise InvalidArgumentError(f"client {self.client_id}: uids must be integers")
        try:
            uids = np.array(uids, dtype=np.int64)
            feats = np.array(self.features_matrix, dtype=np.float64)
            labels = np.array(self.labels_vector, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidArgumentError(f"client {self.client_id}: {exc}") from None
        rows = uids.shape[0] if uids.ndim == 1 else -1
        if feats.ndim != 2 or feats.shape[1] == 0 or feats.shape[0] != rows \
                or labels.shape != (rows,):
            raise InvalidArgumentError(
                f"client {self.client_id}: need n uids, an n x d feature matrix with "
                f"d >= 1 and n labels; got shapes {uids.shape}, {feats.shape}, {labels.shape}"
            )
        if not np.isfinite(feats).all():
            raise InvalidArgumentError(f"non-finite features in client {self.client_id}")
        if not np.isfinite(labels).all():
            raise InvalidArgumentError(f"non-finite label in client {self.client_id}")
        if len(set(uids.tolist())) != rows:
            raise InvalidArgumentError(f"duplicate uids in client {self.client_id}")
        object.__setattr__(self, "uid_array", _read_only(uids))
        object.__setattr__(self, "features_matrix", _read_only(feats))
        object.__setattr__(self, "labels_vector", _read_only(labels))

    def _without_row(self, row: int) -> "ClientDataset":
        """This client without one row, built from its validated columns
        with no new checks: rerunning them costs a 2,000-point client
        about 90 us a deletion and makes a 2-point one slower to cut than
        building it from DataPoints was."""
        keep = np.arange(self.size - 1)
        keep[row:] += 1
        client = object.__new__(ClientDataset)
        object.__setattr__(client, "client_id", self.client_id)
        for name in ("uid_array", "features_matrix", "labels_vector"):
            object.__setattr__(client, name, _read_only(getattr(self, name).take(keep, 0)))
        return client

    @property
    def size(self) -> int:
        return len(self.uid_array)

    @property
    def dim(self) -> int:
        return self.features_matrix.shape[1]

    @cached_property
    def uids(self) -> tuple[int, ...]:
        return tuple(self.uid_array.tolist())

    @cached_property
    def _row_of(self) -> dict[int, int]:
        return {uid: row for row, uid in enumerate(self.uids)}

    @property
    def points(self) -> tuple[DataPoint, ...]:
        """The points as (uid, features, label) tuples, built on each call."""
        return tuple(map(DataPoint, self.uids, self.features_matrix, self.labels_vector.tolist()))

    @cached_property
    def digest(self) -> bytes:
        """blake2b of the client id, the column shapes and the columns'
        little-endian bytes."""
        h = hashlib.blake2b(digest_size=16)
        h.update(f"client {self.client_id} rows={self.size} dim={self.dim}\n".encode())
        h.update(np.ascontiguousarray(self.uid_array, dtype="<i8"))
        h.update(np.ascontiguousarray(self.features_matrix, dtype="<f8"))
        h.update(np.ascontiguousarray(self.labels_vector, dtype="<f8"))
        return h.digest()

    def has_uid(self, uid: int) -> bool:
        return uid in self._row_of

    def rows_for(self, uids: Iterable[int]) -> np.ndarray:
        row_of = self._row_of
        try:
            return np.fromiter((row_of[u] for u in uids), dtype=np.intp)
        except KeyError as exc:
            raise NotFoundError(
                f"uid {exc.args[0]} not in client {self.client_id}"
            ) from None


@dataclass(frozen=True)
class FederatedDataset:
    """All clients plus the generation metadata needed for export. Every
    client's feature rows are dim wide."""

    clients: tuple[ClientDataset, ...]
    classes: int
    dim: int
    declared_samples_per_client: int
    seed: int

    def __post_init__(self) -> None:
        ids = [c.client_id for c in self.clients]
        if len(set(ids)) != len(ids):
            raise InvalidArgumentError("duplicate client ids")
        all_uids: set[int] = set()
        for c in self.clients:
            if c.dim != self.dim:
                raise InvalidArgumentError(
                    f"client {c.client_id} has {c.dim} features per point; the "
                    f"federation has {self.dim}"
                )
            overlap = all_uids.intersection(c.uids)
            if overlap:
                raise InvalidArgumentError(f"uids {sorted(overlap)} appear in two clients")
            all_uids.update(c.uids)
        object.__setattr__(self, "_by_id", {c.client_id: c for c in self.clients})

    def _with_clients(self, clients: tuple[ClientDataset, ...]) -> "FederatedDataset":
        """This federation's metadata with clients taken from it, or cut
        from its clients, so construction's checks still hold and are
        skipped."""
        dataset = object.__new__(FederatedDataset)
        for name in ("classes", "dim", "declared_samples_per_client", "seed"):
            object.__setattr__(dataset, name, getattr(self, name))
        object.__setattr__(dataset, "clients", clients)
        object.__setattr__(dataset, "_by_id", {c.client_id: c for c in clients})
        return dataset

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    @property
    def client_ids(self) -> tuple[int, ...]:
        return tuple(sorted(c.client_id for c in self.clients))

    @property
    def total_points(self) -> int:
        return sum(c.size for c in self.clients)

    def has_client(self, client_id: int) -> bool:
        return client_id in self._by_id  # type: ignore[attr-defined]

    def client(self, client_id: int) -> ClientDataset:
        try:
            return self._by_id[client_id]  # type: ignore[attr-defined]
        except KeyError:
            raise NotFoundError(f"client {client_id} not in federation") from None

    def min_client_size(self) -> int:
        return min((c.size for c in self.clients), default=0)


def _round_half_up(value: Fraction) -> int:
    return math.floor(value + Fraction(1, 2))


@dataclass(frozen=True)
class HyperParams:
    """Training schedule and sampling sizes for one run.

    total_steps is split into rounds of local_steps iterations each; a
    round samples clients_per_round clients with replacement and every
    selected client draws one mini-batch per iteration.
    """

    num_clients: int
    samples_per_client: int
    total_steps: int
    local_steps: int
    clients_per_round: int
    batch_size: int
    lr: float
    rho_sample: float
    rho_client: float
    seed: int
    storage_mode: str = FULL_HISTORY

    def __post_init__(self) -> None:
        for name in ("num_clients", "samples_per_client", "total_steps",
                     "local_steps", "clients_per_round", "batch_size"):
            if getattr(self, name) < 1:
                raise InvalidArgumentError(f"{name} must be >= 1")
        if self.total_steps % self.local_steps != 0:
            raise InvalidArgumentError(
                f"total_steps={self.total_steps} must be a multiple of "
                f"local_steps={self.local_steps}"
            )
        if self.batch_size > self.samples_per_client:
            raise InvalidArgumentError("batch_size exceeds samples_per_client")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise InvalidArgumentError("lr must be positive and finite")
        if self.storage_mode not in STORAGE_MODES:
            raise InvalidArgumentError(f"unknown storage_mode {self.storage_mode!r}")

    @property
    def rounds(self) -> int:
        return self.total_steps // self.local_steps

    def realized_budgets(self, num_clients: int, client_size: int) -> tuple[float, float]:
        """(rho_sample, rho_client) that this run's K and b consume on a
        federation of num_clients clients of client_size points; the
        sample budget is inf for a client with no points."""
        rho_sample = (
            (self.batch_size * self.clients_per_round * self.total_steps)
            / (num_clients * client_size)
            if client_size else float("inf")
        )
        rho_client = (self.clients_per_round * self.total_steps) / (self.local_steps * num_clients)
        return rho_sample, rho_client

    @property
    def rho_sample_realized(self) -> float:
        return self.realized_budgets(self.num_clients, self.samples_per_client)[0]

    @property
    def rho_client_realized(self) -> float:
        return self.realized_budgets(self.num_clients, self.samples_per_client)[1]

    @classmethod
    def from_budgets(
        cls,
        *,
        rho_sample: float,
        rho_client: float,
        num_clients: int,
        samples_per_client: int,
        total_steps: int,
        local_steps: int,
        lr: float,
        seed: int,
        storage_mode: str = FULL_HISTORY,
    ) -> "HyperParams":
        """Derive integer (clients_per_round, batch_size) from the target
        participation budgets.

        Fractional values are rounded half-up and clamped to feasible
        ranges; the rho_*_realized properties recompute the budgets from
        the integers, so callers see what the run will actually consume.
        If the batch size implied by the budgets exceeds the client
        dataset size before rounding, no feasible batch size exists and
        InfeasibleBudgetError is raised.
        """
        if not (0 < rho_sample <= 1) or not (0 < rho_client <= 1):
            raise InvalidArgumentError("budgets must lie in (0, 1]")
        for name, value in (("num_clients", num_clients),
                            ("samples_per_client", samples_per_client),
                            ("total_steps", total_steps), ("local_steps", local_steps)):
            if value < 1:
                raise InvalidArgumentError(f"{name} must be >= 1")
        if total_steps % local_steps != 0:
            raise InvalidArgumentError("total_steps must be a multiple of local_steps")
        rho_c = Fraction(rho_client)
        clients_exact = rho_c * local_steps * num_clients / total_steps
        batch_exact = Fraction(rho_sample) * samples_per_client / (rho_c * local_steps)
        if batch_exact > samples_per_client:
            raise InfeasibleBudgetError(
                f"implied batch size {float(batch_exact):g} exceeds client size "
                f"{samples_per_client}; budgets are infeasible"
            )
        return cls(
            num_clients=num_clients,
            samples_per_client=samples_per_client,
            total_steps=total_steps,
            local_steps=local_steps,
            clients_per_round=max(1, _round_half_up(clients_exact)),
            batch_size=min(samples_per_client, max(1, _round_half_up(batch_exact))),
            lr=lr,
            rho_sample=rho_sample,
            rho_client=rho_client,
            seed=seed,
            storage_mode=storage_mode,
        )


@dataclass(frozen=True)
class UnlearnRequest:
    """A deletion request issued as of training iteration issue_step."""

    kind: str  # "sample" or "client"
    target_client: int
    target_uid: int | None
    issue_step: int

    def __post_init__(self) -> None:
        if self.kind not in ("sample", "client"):
            raise InvalidArgumentError(f"unknown request kind {self.kind!r}")
        if self.kind == "sample" and self.target_uid is None:
            raise InvalidArgumentError("sample request needs a target_uid")
        if self.issue_step < 1:
            raise InvalidArgumentError("issue_step must be >= 1")


# the amplitude step of _class_means
CLASS_MEAN_SCALE = 2.0


def _class_means(classes: int, dim: int) -> np.ndarray:
    """Fixed per-class means: scaled unit directions, wrapping with an
    amplitude step once class count exceeds the dimension."""
    means = np.zeros((classes, dim), dtype=np.float64)
    for c in range(classes):
        means[c, c % dim] = CLASS_MEAN_SCALE * (1 + c // dim)
    return means


def _largest_remainder_counts(proportions: np.ndarray, total: int) -> np.ndarray:
    raw = proportions * total
    counts = np.floor(raw).astype(int)
    shortfall = total - int(counts.sum())
    if shortfall > 0:
        remainders = raw - counts
        order = np.lexsort((np.arange(len(raw)), -remainders))
        for idx in order[:shortfall]:
            counts[idx] += 1
    return counts


def generate_synthetic(
    *,
    num_clients: int,
    samples_per_client: int,
    dim: int,
    classes: int,
    beta: float,
    seed: int,
) -> FederatedDataset:
    """Generate a label-skewed synthetic federation.

    Per-client label proportions are drawn from a symmetric Dirichlet
    with concentration beta (small beta: heterogeneous clients; large
    beta: near-uniform). Features are unit-variance Gaussians around
    fixed per-class means. Fully deterministic given the seed.
    """
    if num_clients < 1 or samples_per_client < 1 or dim < 1 or classes < 1:
        raise InvalidArgumentError("num_clients, samples_per_client, dim, classes must be >= 1")
    if beta <= 0:
        raise InvalidArgumentError("beta must be positive")
    rng = substream(seed, DOMAIN_DATA)
    means = _class_means(classes, dim)
    clients = []
    next_uid = 0
    for client_id in range(num_clients):
        if classes == 1:
            proportions = np.ones(1)
        else:
            proportions = rng.dirichlet(np.full(classes, beta))
        counts = _largest_remainder_counts(proportions, samples_per_client)
        labels = np.repeat(np.arange(classes), counts)
        rng.shuffle(labels)
        features = rng.normal(loc=means[labels], scale=1.0, size=(samples_per_client, dim))
        uids = np.arange(next_uid, next_uid + samples_per_client)
        next_uid += samples_per_client
        clients.append(ClientDataset(client_id, uids, features, labels))
    return FederatedDataset(
        clients=tuple(clients),
        classes=classes,
        dim=dim,
        declared_samples_per_client=samples_per_client,
        seed=seed,
    )


def remove_sample(dataset: FederatedDataset, client_id: int, uid: int) -> FederatedDataset:
    """Return a copy of the federation without one point. Order and uids
    of all other points are unchanged, and every other client is the
    same object."""
    client = dataset.client(client_id)
    row = client._row_of.get(uid)
    if row is None:
        raise NotFoundError(f"uid {uid} not in client {client_id}")
    if client.size == 1:
        raise EmptyFederationError(
            f"removing uid {uid} would leave client {client_id} empty"
        )
    reduced = client._without_row(row)
    return dataset._with_clients(tuple(reduced if c is client else c for c in dataset.clients))


def remove_client(dataset: FederatedDataset, client_id: int) -> FederatedDataset:
    """Return a copy of the federation without one client."""
    dataset.client(client_id)
    clients = tuple(c for c in dataset.clients if c.client_id != client_id)
    if not clients:
        raise EmptyFederationError("removing the last client leaves an empty federation")
    return dataset._with_clients(clients)


def remove_target(dataset: FederatedDataset, request: UnlearnRequest) -> FederatedDataset:
    """Return a copy of the federation without the request's target."""
    if request.kind == "sample":
        return remove_sample(dataset, request.target_client, request.target_uid)
    return remove_client(dataset, request.target_client)


_EXPORT_HEADER = "fedunlab-dataset v1 encoding=decimal-text"


def export_dataset(dataset: FederatedDataset) -> str:
    """Serialize to line-delimited text that round-trips bit-exactly.

    Floats are written with repr, which Python guarantees to round-trip
    to the identical double.
    """
    lines = [_EXPORT_HEADER]
    lines.append(
        "meta clients={} declared_samples={} dim={} classes={} seed={}".format(
            dataset.num_clients,
            dataset.declared_samples_per_client,
            dataset.dim,
            dataset.classes,
            dataset.seed,
        )
    )
    for client in dataset.clients:
        lines.append(f"client {client.client_id}")
        for uid, feats, label in zip(
            client.uids, client.features_matrix.tolist(), client.labels_vector.tolist()
        ):
            lines.append(f"point {uid} {label!r} {','.join(map(repr, feats))}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def import_dataset(text: str) -> FederatedDataset:
    """Parse the export format back into an identical dataset."""
    lines = text.splitlines()
    if not lines or lines[0] != _EXPORT_HEADER:
        raise InvalidArgumentError("not a fedunlab dataset file (bad header)")
    if lines[-1] != "end":
        raise InvalidArgumentError("truncated dataset file (missing end marker)")
    meta = lines[1].split()
    if len(meta) != 6 or meta[0] != "meta":
        raise InvalidArgumentError("malformed meta record")
    try:
        fields = {key: int(value) for key, value in (part.split("=", 1) for part in meta[1:])}
        dim, classes = fields["dim"], fields["classes"]
        declared, seed = fields["declared_samples"], fields["seed"]
    except (ValueError, KeyError) as exc:
        raise InvalidArgumentError(f"malformed meta record {lines[1]!r}: {exc!r}") from None
    columns: list[tuple[int, list[int], list[list[float]], list[float]]] = []
    for number, line in enumerate(lines[2:-1], start=3):
        parts = line.split(" ", 3)
        try:
            if parts[0] == "client":
                columns.append((int(parts[1]), [], [], []))
            elif parts[0] == "point":
                if not columns:
                    raise InvalidArgumentError("point record before any client record")
                _, uids, features, labels = columns[-1]
                uids.append(int(parts[1]))
                labels.append(float(parts[2]))
                features.append([float(x) for x in parts[3].split(",")])
            else:
                raise InvalidArgumentError(f"unknown record type {parts[0]!r}")
        except (ValueError, IndexError) as exc:
            raise InvalidArgumentError(
                f"malformed record on line {number}, {line!r}: {exc!r}"
            ) from None
    clients = tuple(
        ClientDataset(client_id, uids, features or np.empty((0, dim)), labels)
        for client_id, uids, features, labels in columns
    )
    return FederatedDataset(
        clients=clients,
        classes=classes,
        dim=dim,
        declared_samples_per_client=declared,
        seed=seed,
    )


def dataset_digest(dataset: FederatedDataset) -> str:
    """blake2b of the metadata and of every client's cached digest, in
    client order, as 32 hex chars. A dataset that shares clients with
    one already hashed hashes only its new clients."""
    h = hashlib.blake2b(digest_size=16)
    h.update(
        f"fedunlab-dataset clients={dataset.num_clients} "
        f"declared_samples={dataset.declared_samples_per_client} dim={dataset.dim} "
        f"classes={dataset.classes} seed={dataset.seed}\n".encode()
    )
    for client in dataset.clients:
        h.update(client.digest)
    return h.hexdigest()
