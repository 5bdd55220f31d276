"""Correctness checks computed apart from the program.

Each check raises CheckFailed on a wrong output. None of them calls the
code it checks: the FedAvg replay has its own gradient and averaging
code, and the deletion checks compare canonical histories
(``HistoryStore.history_tuple``) from before and after a request.
``selftest.py`` feeds every check a deliberately broken input.
"""

from __future__ import annotations

import hashlib

import numpy as np


class CheckFailed(AssertionError):
    """A program output failed an independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def point_table(dataset) -> dict[int, dict[int, tuple[np.ndarray, float]]]:
    """client -> uid -> (features, label), copied out of the generated
    inputs, so later deletions are tracked by the benchmark itself."""
    return {
        client.client_id: {p.uid: (np.array(p.features), float(p.label)) for p in client.points}
        for client in dataset.clients
    }


def _mean_grad(loss_name: str, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    z = x @ theta
    if loss_name == "logistic":
        residual = 1.0 / (1.0 + np.exp(-z)) - y
    else:
        residual = z - y
    return x.T @ residual / len(y)


def replay_fedavg(history, table, *, loss_name: str, dim: int, lr: float, local_steps: int):
    """Recompute the final global model of a run from its sampling
    history: theta_0 = 0, one SGD step per recorded batch on the points
    in ``table`` (the data that should remain), and the
    multiplicity-weighted mean of the local models at every round end."""
    theta = np.zeros(dim)
    for multiset, body in history:
        require(tuple(cid for cid, _ in body) == tuple(sorted(set(multiset))),
                "round body does not list the selected clients")
        local = {}
        for cid, batches in body:
            require(len(batches) == local_steps, f"client {cid} ran {len(batches)} steps")
            points = table[cid]
            model = theta.copy()
            for batch in batches:
                try:
                    rows = [points[uid] for uid in batch]
                except KeyError as exc:
                    raise CheckFailed(f"batch uses uid {exc.args[0]} not held by client {cid}")
                x = np.array([row[0] for row in rows])
                y = np.array([row[1] for row in rows])
                model = model - lr * _mean_grad(loss_name, model, x, y)
            local[cid] = model
        theta = sum(local[cid] for cid in multiset) / len(multiset)
    return theta


def check_replay(model, history, table, *, loss_name, dim, lr, local_steps, rtol=1e-9) -> None:
    reference = replay_fedavg(
        history, table, loss_name=loss_name, dim=dim, lr=lr, local_steps=local_steps
    )
    require(model is not None, "no final model")
    scale = max(float(np.max(np.abs(reference))), 1e-12)
    gap = float(np.max(np.abs(np.asarray(model) - reference)))
    require(gap <= rtol * scale, f"final model is {gap:.3g} away from the FedAvg replay")


def first_uses(history, local_steps: int) -> dict[int, tuple[int, int]]:
    """uid -> (earliest iteration whose batch holds it, client)."""
    first: dict[int, tuple[int, int]] = {}
    for round_index, (_, body) in enumerate(history):
        base = round_index * local_steps + 1
        for cid, batches in body:
            for step, batch in enumerate(batches):
                t = base + step
                for uid in batch:
                    if uid not in first or t < first[uid][0]:
                        first[uid] = (t, cid)
    return first


def check_sample_deletion(before, after, uid: int) -> None:
    """Every multiset and every batch without uid is unchanged; uid
    appears nowhere."""
    require(len(before) == len(after), "round count changed")
    for (multiset_b, body_b), (multiset_a, body_a) in zip(before, after):
        require(multiset_b == multiset_a, "a client multiset changed")
        require(len(body_b) == len(body_a), "a round lost a client")
        for (cid_b, batches_b), (cid_a, batches_a) in zip(body_b, body_a):
            require(cid_b == cid_a and len(batches_b) == len(batches_a), "a client's steps changed")
            for old, new in zip(batches_b, batches_a):
                require(uid not in new, f"deleted uid {uid} is still in a batch")
                require(uid in old or old == new, "a batch without the deleted uid changed")


def check_client_deletion(before, after, client_id: int) -> None:
    """Rounds before the client's first selection are unchanged; the
    client appears nowhere."""
    require(len(before) == len(after), "round count changed")
    first = next(
        (r for r, (multiset, _) in enumerate(before) if client_id in multiset), len(before)
    )
    require(after[:first] == before[:first], "a round before the first selection changed")
    for multiset, body in after:
        require(client_id not in multiset, f"deleted client {client_id} is still selected")
        require(all(cid != client_id for cid, _ in body), f"deleted client {client_id} still ran")


def check_certified(code: int, text: str, kind: str) -> None:
    """``fedunlab verify`` exited 0 and printed TV = 0 and a pass."""
    require(code == 0 and " statistic=0 " in text and "verdict=pass" in text,
            f"verify --kind {kind} did not certify TV = 0: {text.strip()!r}")


def global_models(store, rounds: int) -> list[bytes]:
    return [
        b"" if model is None else model.tobytes()
        for model in (store.global_model(r) for r in range(rounds + 1))
    ]


def check_roundtrip(saved, loaded, rounds: int) -> None:
    """load(save) returns the same history, global models and epoch."""
    require(loaded.epoch == saved.epoch, "epoch changed in the checkpoint round trip")
    require(loaded.next_iteration == saved.next_iteration, "next_iteration changed")
    require(loaded.history_tuple() == saved.history_tuple(), "history changed in the round trip")
    require(global_models(loaded, rounds) == global_models(saved, rounds),
            "global models changed in the round trip")


def fingerprint(*parts) -> str:
    """Digest of histories, model bytes and file bytes, for comparing
    repeated rounds of the same seed."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()
