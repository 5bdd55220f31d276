"""Acceptance suite: eight verifiable claims about the whole pipeline.

Each test prints one PASS/FAIL line with its measured statistics, so a
verbose run doubles as a certification report. Tolerances are pinned in
the asserts; every random quantity is driven by fixed seeds, so the
suite is deterministic.
"""

import copy
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
from scipy.stats import wilcoxon

from fedunlab.data import (
    COMPACT,
    FULL_HISTORY,
    HyperParams,
    UnlearnRequest,
    generate_synthetic,
    remove_client,
    remove_sample,
)
from fedunlab.engine import run_fats
from fedunlab.losses import global_grad, make_loss
from fedunlab.stability import (
    enumerate_history_distribution,
    equivalence_test_mc,
    involvement_probability,
    tv_distance,
    unlearned_history_distribution,
)
from fedunlab.store import HistoryStore
from fedunlab.streams import derive_trial_seeds
from fedunlab.unlearn import PARTIAL_RETRAIN, unlearn_request

from conftest import micro_hyper, recorded


def _report(number, name, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict} ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


def _hyper(**kwargs):
    defaults = dict(lr=0.05, rho_sample=0.5, rho_client=0.5, seed=0,
                    storage_mode=FULL_HISTORY)
    defaults.update(kwargs)
    return HyperParams(**defaults)


def _micro_dataset():
    return generate_synthetic(
        num_clients=2, samples_per_client=2, dim=1, classes=2, beta=0.5, seed=7
    )


# ----------------------------------------------------------------------
# 1. exact coupling


def test_criterion_1_exact_distributional_identity():
    """Unlearning transports the history distribution onto the
    retrain-from-scratch distribution with zero tolerance."""
    start = time.perf_counter()
    dataset = _micro_dataset()
    hyper = micro_hyper()
    cid = dataset.client_ids[1]
    uid = dataset.client(cid).uids[0]

    sample_request = UnlearnRequest(kind="sample", target_client=cid,
                                    target_uid=uid, issue_step=2)
    tv_sample = tv_distance(
        unlearned_history_distribution(hyper, dataset, sample_request),
        enumerate_history_distribution(hyper, remove_sample(dataset, cid, uid)),
    )
    client_request = UnlearnRequest(kind="client", target_client=cid,
                                    target_uid=None, issue_step=2)
    tv_client = tv_distance(
        unlearned_history_distribution(hyper, dataset, client_request),
        enumerate_history_distribution(hyper, remove_client(dataset, cid)),
    )
    elapsed = time.perf_counter() - start
    _report(
        1, "exact-coupling",
        tv_sample == 0 and tv_client == 0 and elapsed < 1.0,
        f"tv_sample={tv_sample} tv_client={tv_client} elapsed={elapsed:.3f}s < 1s",
    )


def test_compact_deletion_matches_retrain():
    """On a compact store, a serviced deletion leaves the final model
    distributed as a compact retrain on the reduced data, for both
    request kinds (chi-square on final-model bytes, criterion 1's micro
    set-up)."""
    dataset = _micro_dataset()
    hyper = micro_hyper(storage_mode=COMPACT)
    loss = make_loss("quadratic", 1)
    cid = dataset.client_ids[1]
    uid = dataset.client(cid).uids[0]
    cases = (
        (UnlearnRequest(kind="sample", target_client=cid, target_uid=uid, issue_step=2),
         remove_sample(dataset, cid, uid)),
        (UnlearnRequest(kind="client", target_client=cid, target_uid=None, issue_step=2),
         remove_client(dataset, cid)),
    )

    def final_model(seed, data, request=None):
        h = replace(hyper, seed=int(seed))
        store = HistoryStore(COMPACT, 1)
        run_fats(1, h, data, store, loss)
        if request is not None:
            unlearn_request(request, store, data, h, loss)
        return store.latest_global_model().tobytes()

    details = []
    passed = True
    for salt, (request, reduced) in enumerate(cases):
        report = equivalence_test_mc(
            lambda seed, request=request: final_model(seed, dataset, request),
            lambda seed, reduced=reduced: final_model(seed, reduced),
            trials=1000, seed=920 + salt, name=f"compact-{request.kind}",
        )
        passed = passed and report.passed
        details.append(f"{request.kind} p={report.pvalue:.3g}")
    assert passed, "; ".join(details)


# ----------------------------------------------------------------------
# 2. re-computation probability


def test_criterion_2_recompute_probability():
    """Exact involvement probabilities match Monte-Carlo within 3-sigma
    binomial bands, stay below the realized budgets, and a ten-request
    stream stays below w*rho + 3-sigma total recomputes."""
    dataset = _micro_dataset()
    hyper = micro_hyper()
    cid, uid = 1, dataset.client(1).uids[0]

    p_sample = involvement_probability(hyper, dataset, "sample", cid, uid)
    p_client = involvement_probability(hyper, dataset, "client", cid)
    exact_ok = p_sample == Fraction(7, 16) and p_client == Fraction(3, 4)
    budget_ok = (
        float(p_sample) <= hyper.rho_sample_realized
        and float(p_client) <= hyper.rho_client_realized
    )

    loss = make_loss("quadratic", 1)
    trials = 10_000
    hits_sample = hits_client = 0
    for seed in derive_trial_seeds(2025, trials, salt=21):
        store = HistoryStore(FULL_HISTORY, 1)
        run_fats(1, replace(hyper, seed=int(seed)), dataset, store, loss)
        if store.earliest_sample_use(uid) is not None:
            hits_sample += 1
        if store.earliest_client_use(cid) is not None:
            hits_client += 1
    freq_sample = hits_sample / trials
    freq_client = hits_client / trials
    band_sample = 3 * float(p_sample * (1 - p_sample) / trials) ** 0.5
    band_client = 3 * float(p_client * (1 - p_client) / trials) ** 0.5
    mc_ok = (
        abs(freq_sample - float(p_sample)) <= band_sample
        and abs(freq_client - float(p_client)) <= band_client
    )

    # stream of w=10 single-sample deletions, one per client
    w = 10
    stream_dataset = generate_synthetic(
        num_clients=10, samples_per_client=10, dim=1, classes=2, beta=0.5, seed=4
    )
    stream_hyper = _hyper(
        num_clients=10, samples_per_client=10, total_steps=2, local_steps=1,
        clients_per_round=1, batch_size=1,
        rho_sample=0.02, rho_client=0.2,
    )
    first_client = stream_dataset.client_ids[0]
    q = involvement_probability(
        stream_hyper, stream_dataset, "sample", first_client,
        stream_dataset.client(first_client).uids[0],
    )
    rho = stream_hyper.rho_sample_realized
    streams = 300
    totals = []
    for seed in derive_trial_seeds(77, streams, salt=5):
        h = replace(stream_hyper, seed=int(seed))
        store = HistoryStore(FULL_HISTORY, 1)
        run_fats(1, h, stream_dataset, store, loss)
        working = stream_dataset
        recomputes = 0
        for client_id in working.client_ids:
            target = working.client(client_id).uids[0]
            request = UnlearnRequest(kind="sample", target_client=client_id,
                                     target_uid=target, issue_step=2)
            outcome, working = unlearn_request(request, store, working, h, loss)
            if outcome.action == PARTIAL_RETRAIN:
                recomputes += 1
        totals.append(recomputes)
    sigma_one = float(w * q * (1 - q)) ** 0.5
    single_ok = totals[0] <= w * rho + 3 * sigma_one
    mean_total = float(np.mean(totals))
    mean_band = 3 * sigma_one / streams**0.5
    mean_ok = mean_total <= w * rho + mean_band
    _report(
        2, "recompute-probability",
        exact_ok and budget_ok and mc_ok and single_ok and mean_ok,
        f"p_sample=7/16 mc={freq_sample:.4f}+/-{band_sample:.4f} "
        f"p_client=3/4 mc={freq_client:.4f}+/-{band_client:.4f} "
        f"stream mean={mean_total:.3f} <= w*rho+band={w * rho + mean_band:.3f}",
    )


# ----------------------------------------------------------------------
# 3. Monte-Carlo equivalence at scale


def test_criterion_3_mc_equivalence_and_mutation():
    """Chi-square two-sample test on 1e5 pipeline trials passes for the
    real unlearner and fails for a recompute-disabled mutation, within
    the two-minute budget."""
    start = time.perf_counter()
    dataset = _micro_dataset()
    hyper = micro_hyper()
    loss = make_loss("quadratic", 1)
    cid, uid = 1, dataset.client(1).uids[0]
    reduced = remove_sample(dataset, cid, uid)

    def run_unlearned(seed):
        h = replace(hyper, seed=int(seed))
        store = HistoryStore(FULL_HISTORY, 1)
        run_fats(1, h, dataset, store, loss)
        request = UnlearnRequest(kind="sample", target_client=cid,
                                 target_uid=uid, issue_step=2)
        unlearn_request(request, store, dataset, h, loss)
        return store.history_tuple()

    def run_retrain(seed):
        h = replace(hyper, seed=int(seed))
        store = HistoryStore(FULL_HISTORY, 1)
        run_fats(1, h, reduced, store, loss)
        return store.history_tuple()

    def run_mutated(seed):
        # deletes the data but never recomputes: the history keeps the
        # deleted point's influence
        h = replace(hyper, seed=int(seed))
        store = HistoryStore(FULL_HISTORY, 1)
        run_fats(1, h, dataset, store, loss)
        return store.history_tuple()

    equivalence = equivalence_test_mc(
        run_unlearned, run_retrain, trials=50_000, seed=909, name="unlearn-vs-retrain"
    )
    mutation = equivalence_test_mc(
        run_mutated, run_retrain, trials=20_000, seed=910, name="mutation-vs-retrain"
    )
    elapsed = time.perf_counter() - start
    _report(
        3, "mc-equivalence",
        equivalence.passed and not mutation.passed and elapsed < 120.0,
        f"equivalence p={equivalence.pvalue:.4f} (pass), "
        f"mutation p={mutation.pvalue:.3g} (fail as required), "
        f"elapsed={elapsed:.1f}s < 120s",
    )


# ----------------------------------------------------------------------
# 4. convergence trend


def test_criterion_4_convergence_improves_with_budget():
    """Average squared gradient norm decreases over the horizon, and a
    4x larger stability budget strictly lowers the plateau (one-sided
    Wilcoxon over 20 paired seeds at 0.05) on quadratic and logistic
    tasks."""
    start = time.perf_counter()
    dataset = generate_synthetic(
        num_clients=20, samples_per_client=50, dim=8, classes=2, beta=0.5, seed=42
    )
    total_steps, local_steps = 200, 5

    def run(loss_name, batch_size, seed, lr):
        hyper = _hyper(
            num_clients=20, samples_per_client=50, total_steps=total_steps,
            local_steps=local_steps, clients_per_round=1,
            batch_size=batch_size, lr=lr,
            rho_sample=batch_size * total_steps / 1000,
            rho_client=total_steps / (local_steps * 20),
            seed=seed,
        )
        loss = make_loss(loss_name, 8)
        store = HistoryStore(FULL_HISTORY, local_steps)
        grads = []

        def hook(round_index, iteration, theta):
            g = global_grad(loss, theta, dataset)
            grads.append(float(g @ g))

        run_fats(1, hyper, dataset, store, loss, round_hook=hook)
        return grads

    details = []
    all_ok = True
    for loss_name, lr in (("quadratic", 0.01), ("logistic", 0.5)):
        plateau_small, plateau_large, decreasing = [], [], 0
        for seed in range(20):
            small = run(loss_name, 2, seed, lr)
            large = run(loss_name, 8, seed, lr)
            running = np.cumsum(small) / np.arange(1, len(small) + 1)
            if running[-1] < running[4]:
                decreasing += 1
            tail = len(small) // 4
            plateau_small.append(float(np.mean(small[-tail:])))
            plateau_large.append(float(np.mean(large[-tail:])))
        _, pvalue = wilcoxon(plateau_small, plateau_large, alternative="greater")
        ok = decreasing >= 18 and pvalue < 0.05
        all_ok = all_ok and ok
        details.append(
            f"{loss_name}: decreasing {decreasing}/20, "
            f"plateau {np.mean(plateau_small):.4f}->{np.mean(plateau_large):.4f} "
            f"wilcoxon p={pvalue:.2g}"
        )
    elapsed = time.perf_counter() - start
    _report(
        4, "convergence-trend",
        all_ok and elapsed < 300.0,
        "; ".join(details) + f"; elapsed={elapsed:.1f}s < 300s",
    )


# ----------------------------------------------------------------------
# 5. unlearning efficiency


def test_criterion_5_efficiency_bounds_and_probe_count():
    """Mean retrained iterations stays within the stability budget on a
    near-full-retrain config, unlearning cost is monotone in the
    per-round client count, and verification is exactly one probe per
    request at every horizon."""
    loss1 = make_loss("quadratic", 1)
    loss2 = make_loss("quadratic", 2)

    # near-full-retrain config: a drawn batch contains the target with
    # probability 2/3, and involvement in round 1 retrains everything
    near = generate_synthetic(
        num_clients=4, samples_per_client=3, dim=1, classes=2, beta=0.5, seed=5
    )
    near_hyper = _hyper(
        num_clients=4, samples_per_client=3, total_steps=2, local_steps=1,
        clients_per_round=1, batch_size=2,
        rho_sample=2 * 2 / 12, rho_client=2 / 4,
    )
    target_cid = 2
    target_uid = near.client(2).uids[0]
    exact = {}
    dist = enumerate_history_distribution(near_hyper, near)
    for kind in ("sample", "client"):
        mean = Fraction(0)
        second = Fraction(0)
        for history, prob in zip(dist.support, dist.probs):
            first = None
            for round_index, (multiset, body) in enumerate(history, start=1):
                if kind == "client":
                    involved = target_cid in multiset
                else:
                    involved = any(
                        body_cid == target_cid
                        and any(target_uid in batch for batch in batches)
                        for body_cid, batches in body
                    )
                if involved:
                    first = round_index
                    break
            retrained = 0 if first is None else near_hyper.total_steps - first + 1
            mean += prob * retrained
            second += prob * retrained * retrained
        exact[kind] = (mean, second - mean * mean)
    bound_sample = Fraction(
        near_hyper.batch_size * near_hyper.clients_per_round
        * near_hyper.total_steps,
        near_hyper.num_clients * near_hyper.samples_per_client,
    ) * near_hyper.total_steps
    bound_client = Fraction(
        near_hyper.clients_per_round * near_hyper.total_steps,
        near_hyper.local_steps * near_hyper.num_clients,
    ) * near_hyper.total_steps
    exact_ok = exact["sample"][0] <= bound_sample and exact["client"][0] <= bound_client

    trials = 2000
    mc_ok = True
    mc_detail = []
    for kind, salt in (("sample", 7), ("client", 8)):
        totals = []
        for seed in derive_trial_seeds(99, trials, salt=salt):
            h = replace(near_hyper, seed=int(seed))
            store = HistoryStore(FULL_HISTORY, 1)
            run_fats(1, h, near, store, loss1)
            if kind == "sample":
                request = UnlearnRequest(kind="sample", target_client=target_cid,
                                         target_uid=target_uid, issue_step=2)
                outcome, _ = unlearn_request(request, store, near, h, loss1)
            else:
                request = UnlearnRequest(kind="client", target_client=target_cid,
                                         target_uid=None, issue_step=2)
                outcome, _ = unlearn_request(request, store, near, h, loss1)
            totals.append(outcome.retrained_iterations)
        mean = float(np.mean(totals))
        band = 3 * (float(exact[kind][1]) / trials) ** 0.5
        mc_ok = mc_ok and abs(mean - float(exact[kind][0])) <= band
        mc_detail.append(f"{kind} mc={mean:.3f} exact={float(exact[kind][0]):.3f}")

    # monotone cost in the per-round client count
    grid = generate_synthetic(
        num_clients=8, samples_per_client=4, dim=2, classes=2, beta=0.5, seed=3
    )
    # The K arms run interleaved, trial by trial, so a change of host
    # speed during the loop reaches all three alike.
    arms = (1, 2, 4)
    hypers = {
        k: _hyper(
            num_clients=8, samples_per_client=4, total_steps=4, local_steps=1,
            clients_per_round=k, batch_size=1,
            rho_sample=k * 4 / 32, rho_client=k * 4 / 8,
        )
        for k in arms
    }
    seeds = {k: derive_trial_seeds(777, 300, salt=k) for k in arms}
    request = UnlearnRequest(
        kind="sample", target_client=3,
        target_uid=grid.client(3).uids[0], issue_step=4,
    )
    walls = {k: [] for k in arms}
    retrains = {k: [] for k in arms}
    for trial in range(300):
        for k in arms:
            h = replace(hypers[k], seed=int(seeds[k][trial]))
            store = HistoryStore(FULL_HISTORY, 1)
            run_fats(1, h, grid, store, loss2)
            wall_start = time.perf_counter()
            outcome, _ = unlearn_request(request, store, grid, h, loss2)
            walls[k].append(time.perf_counter() - wall_start)
            retrains[k].append(outcome.retrained_iterations)
    mean_wall = [float(np.mean(walls[k])) for k in arms]
    mean_retrained = [float(np.mean(retrains[k])) for k in arms]
    monotone_ok = (
        mean_wall[0] <= mean_wall[1] <= mean_wall[2]
        and mean_retrained[0] <= mean_retrained[1] <= mean_retrained[2]
    )

    # exactly one probe per request at every horizon
    probe_ok = True
    probe_counts = []
    for total_steps in (100, 1000, 10_000):
        data = generate_synthetic(
            num_clients=2, samples_per_client=4, dim=1, classes=2, beta=0.5, seed=6
        )
        hyper = _hyper(
            num_clients=2, samples_per_client=4, total_steps=total_steps,
            local_steps=10, clients_per_round=1, batch_size=2,
            rho_sample=0.5, rho_client=0.5, lr=0.01, seed=11,
        )
        store = HistoryStore(FULL_HISTORY, 10)
        run_fats(1, hyper, data, store, loss1)
        request = UnlearnRequest(kind="sample", target_client=0,
                                 target_uid=0, issue_step=total_steps)
        outcome, _ = unlearn_request(request, store, data, hyper, loss1)
        probe_counts.append(outcome.probes)
        probe_ok = probe_ok and outcome.probes == 1
    _report(
        5, "unlearning-efficiency",
        exact_ok and mc_ok and monotone_ok and probe_ok,
        f"{'; '.join(mc_detail)}; bounds rho*T=({float(bound_sample):.3f}, "
        f"{float(bound_client):.3f}); wall(K=1,2,4)="
        f"{'/'.join(f'{w * 1e6:.0f}us' for w in mean_wall)}; "
        f"probes at T=1e2,1e3,1e4: {probe_counts}",
    )


# ----------------------------------------------------------------------
# 6. storage model


def test_criterion_6_storage_scaling():
    """Compact footprint is horizon-independent (<=5% variation);
    full-history footprint is linear in the horizon (R^2 >= 0.99)."""
    loss = make_loss("quadratic", 1)
    horizons = (100, 1000, 10_000)
    words = {FULL_HISTORY: [], COMPACT: []}
    for mode in (FULL_HISTORY, COMPACT):
        for total_steps in horizons:
            data = generate_synthetic(
                num_clients=2, samples_per_client=4, dim=1, classes=2,
                beta=0.5, seed=6,
            )
            hyper = _hyper(
                num_clients=2, samples_per_client=4, total_steps=total_steps,
                local_steps=10, clients_per_round=1, batch_size=2,
                rho_sample=0.5, rho_client=0.5, lr=0.01, seed=11,
                storage_mode=mode,
            )
            store = HistoryStore(mode, 10)
            run_fats(1, hyper, data, store, loss)
            words[mode].append(store.storage_word_count())
    compact = words[COMPACT]
    variation = (max(compact) - min(compact)) / max(compact)
    compact_ok = variation <= 0.05
    x = np.array(horizons, dtype=float)
    y = np.array(words[FULL_HISTORY], dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1 - ss_res / ss_tot
    linear_ok = r_squared >= 0.99 and slope > 0
    _report(
        6, "storage-model",
        compact_ok and linear_ok,
        f"compact words={compact} variation={variation:.2%} <= 5%; "
        f"full words={words[FULL_HISTORY]} R^2={r_squared:.6f} >= 0.99",
    )


# ----------------------------------------------------------------------
# 7. determinism and replay


def test_criterion_7_determinism_and_prefix_preservation():
    """Identical (config, seed) gives bit-identical stores, metrics, and
    models; deletion preserves prefix records bit-exactly."""
    dataset = generate_synthetic(
        num_clients=4, samples_per_client=5, dim=2, classes=2, beta=0.5, seed=6
    )
    hyper = _hyper(
        num_clients=4, samples_per_client=5, total_steps=8, local_steps=2,
        clients_per_round=2, batch_size=2, seed=13,
    )
    loss = make_loss("quadratic", 2)

    stores, finals, metrics = [], [], []
    for _ in range(2):
        store = HistoryStore(FULL_HISTORY, 2)
        rows = []
        final = run_fats(
            1, hyper, dataset, store, loss,
            round_hook=lambda r, t, theta: rows.append((r, t, theta.tobytes())),
        )
        stores.append(store)
        finals.append(final)
        metrics.append(rows)
    deterministic = (
        stores[0].state_equal(stores[1])
        and np.array_equal(finals[0], finals[1])
        and metrics[0] == metrics[1]
    )

    # prefix preservation under sample deletion
    store = stores[0]
    reference = copy.deepcopy(store)
    cid = uid = first_use = None
    for client in dataset.clients:
        for candidate in client.uids:
            use = reference.earliest_sample_use(candidate)
            # inside a round, so the re-run recomputes local models
            if use is not None and use % hyper.local_steps != 1:
                cid, uid, first_use = client.client_id, candidate, use
                break
        if uid is not None:
            break
    assert uid is not None, "need a sample first used inside a round"
    request = UnlearnRequest(kind="sample", target_client=cid,
                             target_uid=uid, issue_step=8)
    _, reduced = unlearn_request(request, store, dataset, hyper, loss)
    before = recorded(reference)[1]
    after = recorded(store)[1]
    prefix = {key: batch for key, batch in before.items() if key[0] < first_use}
    prefix_records = len(prefix)
    prefix_ok = all(after.get(key) == batch for key, batch in prefix.items()) and all(
        np.array_equal(store.global_model(r), reference.global_model(r))
        for r in range((first_use - 1) // hyper.local_steps + 1)
    )
    # The re-run recomputed the local models of its first round from the
    # round's start; replaying the whole new history from theta0 must
    # give the same global models bit for bit.
    plan = dict(store.rounds())
    replayed = HistoryStore(FULL_HISTORY, 2)
    run_fats(1, hyper, reduced, replayed, loss, replay=plan)
    recomputed_ok = all(
        np.array_equal(replayed.global_model(r), store.global_model(r))
        for r in range(hyper.rounds + 1)
    )
    _report(
        7, "determinism-replay",
        deterministic and prefix_ok and recomputed_ok and prefix_records > 0,
        f"two runs bit-identical; {prefix_records} prefix records and the "
        f"global models before t={first_use} preserved bit-exactly across "
        f"deletion; a replay of the new history recomputes its models exactly",
    )


# ----------------------------------------------------------------------
# 8. numerical hygiene


def test_criterion_8_gradient_oracles():
    """The batch gradient the engine steps with matches central finite
    differences of the batch loss to 1e-5 relative, at 20 random
    mini-batch probes per loss model; each model's first probe is a
    batch of one."""
    rng = np.random.default_rng(8)
    dim = 5
    eps = 1e-6
    worst = 0.0
    for name in ("quadratic", "logistic"):
        loss = make_loss(name, dim)
        for probe in range(20):
            rows = 1 if probe == 0 else int(rng.integers(1, 9))
            theta = rng.normal(size=dim)
            features = rng.normal(size=(rows, dim))
            labels = rng.integers(0, 2, size=rows).astype(float)
            grad = loss.mean_grad(theta, features, labels)
            numeric = np.zeros(dim)
            for i in range(dim):
                up, down = theta.copy(), theta.copy()
                up[i] += eps
                down[i] -= eps
                numeric[i] = (
                    loss.mean_loss(up, features, labels)
                    - loss.mean_loss(down, features, labels)
                ) / (2 * eps)
            scale = max(1.0, float(np.linalg.norm(numeric)))
            worst = max(worst, float(np.linalg.norm(grad - numeric)) / scale)
    _report(
        8, "numerical-hygiene",
        worst < 1e-5,
        f"worst relative gradient error {worst:.2e} < 1e-5 over 2x20 mini-batch probes",
    )
