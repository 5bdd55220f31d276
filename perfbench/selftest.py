"""Show that every correctness check of the benchmark rejects a broken
input: a deleted uid left in, a perturbed model, a truncated checkpoint,
a mutated pipeline, and a certification that reports TV > 0.

Run from the repository root:

    python3 perfbench/selftest.py

Each line reports whether a check accepted the real output and rejected
the broken one; the exit code is 1 if any did not.
"""

import os
import sys
import tempfile
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from fedunlab import (  # noqa: E402
    FULL_HISTORY,
    CheckpointFormatError,
    HistoryStore,
    HyperParams,
    UnlearnRequest,
    generate_synthetic,
    load_checkpoint,
    make_loss,
    process_stream,
    run_fats,
    save_checkpoint,
)

import checks  # noqa: E402
import workloads  # noqa: E402

failures = 0


def expect(label: str, fn, should_pass: bool) -> None:
    global failures
    try:
        fn()
        passed = True
    except checks.CheckFailed:
        passed = False
    ok = passed == should_pass
    failures += not ok
    verdict = "accepts" if passed else "rejects"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: check {verdict}")


def trained(dataset, hyper, loss):
    store = HistoryStore(FULL_HISTORY, hyper.local_steps)
    run_fats(1, hyper, dataset, store, loss)
    return store


def main() -> int:
    dataset = generate_synthetic(
        num_clients=4, samples_per_client=12, dim=3, classes=2, beta=0.5, seed=3
    )
    hyper = HyperParams(
        num_clients=4, samples_per_client=12, total_steps=40, local_steps=4,
        clients_per_round=2, batch_size=2, lr=0.05, rho_sample=1.0, rho_client=1.0, seed=5,
    )
    loss = make_loss("logistic", 3)
    replay = dict(loss_name="logistic", dim=3, lr=hyper.lr, local_steps=hyper.local_steps)

    # FedAvg replay of a trained model
    store = trained(dataset, hyper, loss)
    table = checks.point_table(dataset)
    model, history = store.latest_global_model(), store.history_tuple()
    expect("replay, trained model", lambda: checks.check_replay(model, history, table, **replay), True)
    expect("replay, perturbed model",
           lambda: checks.check_replay(model * (1 + 1e-7), history, table, **replay), False)

    # sample deletion: the latest-used point of client 0
    first = checks.first_uses(history, hyper.local_steps)
    uid = max((u for u, (t, c) in first.items() if c == 0), key=lambda u: first[u][0])
    request = UnlearnRequest("sample", 0, uid, hyper.total_steps)
    (outcome,), reduced = process_stream([request], store, dataset, hyper, loss)
    after = store.history_tuple()
    expect("sample deletion, real", lambda: checks.check_sample_deletion(history, after, uid), True)
    expect("sample deletion, uid left in",
           lambda: checks.check_sample_deletion(history, history, uid), False)
    changed = list(after)
    multiset, body = changed[0]
    cid, batches = body[0]
    other = tuple(u for u in dataset.client(cid).uids if u != uid and u not in batches[0])
    changed[0] = (multiset, ((cid, (other[: hyper.batch_size],) + batches[1:]),) + body[1:])
    expect("sample deletion, untouched batch changed",
           lambda: checks.check_sample_deletion(history, tuple(changed), uid), False)
    del table[0][uid]
    model_after = store.latest_global_model()
    expect("replay after sample deletion",
           lambda: checks.check_replay(model_after, after, table, **replay), True)
    expect("replay, history still holding the deleted uid",
           lambda: checks.check_replay(model_after, history, table, **replay), False)

    # client deletion: the client selected last for the first time, so
    # the rounds before its first selection are not empty
    selected = {}
    for index, (multiset, _) in enumerate(after):
        for client in multiset:
            selected.setdefault(client, index)
    client = max(selected, key=selected.get)
    request = UnlearnRequest("client", client, None, hyper.total_steps)
    (outcome,), reduced = process_stream([request], store, reduced, hyper, loss)
    final = store.history_tuple()
    expect("client deletion, real", lambda: checks.check_client_deletion(after, final, client), True)
    expect("client deletion, client left in",
           lambda: checks.check_client_deletion(after, after, client), False)
    earlier = (final[-1],) + final[1:]
    expect("client deletion, earlier round changed",
           lambda: checks.check_client_deletion(after, earlier, client), False)

    # checkpoint round trip
    with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE)) as scratch:
        path = os.path.join(scratch, "ckpt.txt")
        save_checkpoint(store, hyper, reduced, path)
        loaded, _ = load_checkpoint(path, reduced)
        expect("round trip, real", lambda: checks.check_roundtrip(store, loaded, hyper.rounds), True)
        loaded.epoch += 1
        expect("round trip, epoch changed",
               lambda: checks.check_roundtrip(store, loaded, hyper.rounds), False)
        loaded, _ = load_checkpoint(path, reduced)
        loaded.record_global(hyper.rounds, loaded.latest_global_model() + 1e-12)
        expect("round trip, global model changed",
               lambda: checks.check_roundtrip(store, loaded, hyper.rounds), False)
        with open(path, "rb") as handle:
            text = handle.read()
        with open(path, "wb") as handle:
            handle.write(text[: len(text) // 2])

        def load_truncated():
            try:
                load_checkpoint(path, reduced)
            except CheckpointFormatError as exc:
                raise checks.CheckFailed(str(exc)) from exc

        expect("load, truncated checkpoint", load_truncated, False)

    # determinism: a second training of the same seed, and another seed
    again = trained(dataset, hyper, loss)
    other_seed = trained(dataset, replace(hyper, seed=6), loss)

    def same(a, b):
        checks.require(
            checks.fingerprint(a.history_tuple(), a.latest_global_model().tobytes())
            == checks.fingerprint(b.history_tuple(), b.latest_global_model().tobytes()),
            "two trainings differ",
        )

    first_run = trained(dataset, hyper, loss)
    expect("determinism, same seed", lambda: same(first_run, again), True)
    expect("determinism, another seed", lambda: same(first_run, other_seed), False)

    # criterion-3 Monte-Carlo check, with the no-recompute mutation as the
    # unlearned arm
    micro = workloads.Micro.build(1, prefix="")
    rec = workloads.Recorder()
    expect("Monte-Carlo, real pipeline", lambda: micro.equivalence(rec, 1, 500, 500), True)

    class Mutated(workloads.Micro):
        def runners(self, rec):
            unlearned, retrained, mutated = super().runners(rec)
            return mutated, retrained, mutated

    mutated = Mutated(micro.dataset, micro.reduced, micro.hyper, micro.loss, micro.request, "")
    expect("Monte-Carlo, mutated pipeline", lambda: mutated.equivalence(rec, 1, 500, 500), False)

    # certification output and its non-vacuity
    certify = workloads.Certify(clients=2, points=3, total_steps=3, repeats=1)
    expect("verify, real", lambda: certify.run(rec, 1), True)
    expect("verify, TV > 0 reported", lambda: checks.check_certified(
        1, "exact mode=exact_enumeration statistic=0.109375 pvalue=- threshold=0 verdict=fail",
        "sample"), False)
    expect("TV against the unreduced data", lambda: certify.check_nonvacuous(1), True)

    print(f"{failures} check(s) did not behave as required")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
