"""Exact distribution lab: enumeration, deletion couplings, involvement
probabilities, equivalence harnesses."""

import math
from collections import Counter
from fractions import Fraction

import pytest

from fedunlab import stability
from fedunlab.data import (
    COMPACT,
    FULL_HISTORY,
    HyperParams,
    UnlearnRequest,
    generate_synthetic,
    remove_client,
    remove_sample,
    remove_target,
)
from fedunlab.engine import ReplayPlan
from fedunlab.errors import BinsTooFineError, InvalidArgumentError, TooLargeToEnumerateError
from fedunlab.stability import (
    HistoryDistribution,
    _multiset_probability,
    enumerate_history_distribution,
    enumeration_budget,
    equivalence_test_exact,
    equivalence_test_mc,
    involvement_probability,
    tv_distance,
    unlearned_history_distribution,
    unlearned_history_distributions,
)
from fedunlab.streams import substream
from fedunlab.unlearn import build_sample_replay_plan

from conftest import micro_hyper


def _hyper(num_clients, samples, total_steps, local_steps, clients_per_round,
           batch_size, seed=0, storage_mode=FULL_HISTORY):
    return HyperParams(
        num_clients=num_clients, samples_per_client=samples,
        total_steps=total_steps, local_steps=local_steps,
        clients_per_round=clients_per_round, batch_size=batch_size,
        lr=0.1, rho_sample=0.5, rho_client=0.5, seed=seed,
        storage_mode=storage_mode,
    )


def _dataset(num_clients, samples, seed=7):
    return generate_synthetic(
        num_clients=num_clients, samples_per_client=samples, dim=1,
        classes=2, beta=0.5, seed=seed,
    )


# ----------------------------------------------------------------------
# enumeration


def test_multiset_probability_sums_to_one():
    import itertools

    for num_clients, count in ((2, 2), (3, 2), (3, 3), (4, 2)):
        total = sum(
            _multiset_probability(m, num_clients)
            for m in itertools.combinations_with_replacement(
                range(num_clients), count
            )
        )
        assert total == 1


def test_multiset_probability_oracle():
    # ordered draws over 2 clients: (0,0) w.p. 1/4; {0,1} has two orders
    assert _multiset_probability((0, 0), 2) == Fraction(1, 4)
    assert _multiset_probability((0, 1), 2) == Fraction(1, 2)


def test_micro_distribution_uniform(micro_dataset):
    dist = enumerate_history_distribution(micro_hyper(), micro_dataset)
    assert len(dist.support) == 16
    assert all(p == Fraction(1, 16) for p in dist.probs)


def test_budget_guard():
    dataset = _dataset(6, 8)
    hyper = _hyper(6, 8, 12, 2, 4, 3)
    assert enumeration_budget(hyper, dataset) > 10**6
    with pytest.raises(TooLargeToEnumerateError):
        enumerate_history_distribution(hyper, dataset)


def test_distribution_requires_unit_mass():
    with pytest.raises(InvalidArgumentError):
        HistoryDistribution(support=((),), probs=(Fraction(1, 2),))


# ----------------------------------------------------------------------
# deletion couplings, zero tolerance


@pytest.mark.parametrize("kind", ["sample", "client"])
def test_micro_coupling_exact(micro_dataset, kind):
    hyper = micro_hyper()
    cid = micro_dataset.client_ids[1]
    uid = micro_dataset.client(cid).uids[0] if kind == "sample" else None
    request = UnlearnRequest(kind=kind, target_client=cid, target_uid=uid,
                             issue_step=hyper.total_steps)
    unlearned = unlearned_history_distribution(hyper, micro_dataset, request)
    if kind == "sample":
        reduced = remove_sample(micro_dataset, cid, uid)
    else:
        reduced = remove_client(micro_dataset, cid)
    retrain = enumerate_history_distribution(hyper, reduced)
    assert tv_distance(unlearned, retrain) == 0


_COUPLING_CONFIGS = [
    (2, 2, 2, 2, 1, 1),  # multiple local steps per round
    (2, 2, 2, 1, 2, 1),  # multiset with multiplicity
    (3, 2, 2, 1, 1, 1),  # three clients
    (2, 3, 2, 1, 1, 2),  # batch size two of three
    (2, 2, 4, 2, 1, 1),  # two rounds of two steps
]


# The store mode is one more axis; full-history cases keep their
# original ids and compact ones end in "-compact".
@pytest.mark.parametrize(
    "num_clients,samples,total_steps,local_steps,clients_per_round,batch_size,"
    "storage_mode",
    [
        pytest.param(
            *config, mode,
            id="-".join(map(str, config)) + ("-compact" if mode == COMPACT else ""),
        )
        for mode in (FULL_HISTORY, COMPACT)
        for config in _COUPLING_CONFIGS
    ],
)
@pytest.mark.parametrize("kind", ["sample", "client"])
def test_coupling_exact_across_configs(
    num_clients, samples, total_steps, local_steps, clients_per_round,
    batch_size, kind, storage_mode,
):
    """The shipped deletion rule equals retrain-from-scratch exactly on
    every enumerable configuration, including multiplicity, multiple
    local steps (mid-round starts), and larger batches, on both store
    modes."""
    dataset = _dataset(num_clients, samples)
    hyper = _hyper(num_clients, samples, total_steps, local_steps,
                   clients_per_round, batch_size, storage_mode=storage_mode)
    cid = dataset.client_ids[-1]
    if kind == "sample":
        if batch_size > samples - 1:
            pytest.skip("deletion would make the batch infeasible")
        uid = dataset.client(cid).uids[0]
        reduced = remove_sample(dataset, cid, uid)
    else:
        uid = None
        reduced = remove_client(dataset, cid)
    request = UnlearnRequest(kind=kind, target_client=cid, target_uid=uid,
                             issue_step=hyper.total_steps)
    unlearned = unlearned_history_distribution(hyper, dataset, request)
    retrain = enumerate_history_distribution(hyper, reduced)
    assert tv_distance(unlearned, retrain) == 0


def _never_recompute(request, mode, first_use, multisets, records, local_steps):
    return None, ReplayPlan()


def _redraw_whole_suffix(request, mode, first_use, multisets, records, local_steps):
    return first_use, ReplayPlan()


def _plan_from_first_use(request, mode, first_use, multisets, records, local_steps):
    """A sample plan anchored at the first use, not at its round's start:
    the round the re-run restarts in gets a fresh multiset."""
    if first_use is None:
        return None, ReplayPlan()
    return first_use, build_sample_replay_plan(request, first_use, multisets, records, local_steps)


@pytest.mark.parametrize(
    "mutant,kind,config",
    [
        (_never_recompute, "sample", (2, 3, 3, 1, 1, 2)),
        (_never_recompute, "client", (2, 3, 3, 1, 1, 2)),
        (_redraw_whole_suffix, "sample", (2, 3, 3, 1, 1, 2)),
        (_plan_from_first_use, "sample", (2, 3, 4, 2, 1, 1)),
        (_plan_from_first_use, "sample", (2, 2, 4, 2, 1, 1)),
    ],
    ids=[
        "_never_recompute-sample",
        "_never_recompute-client",
        "_redraw_whole_suffix-sample",
        "_plan_from_first_use-sample-2-3-4-2-1-1",
        "_plan_from_first_use-sample-2-2-4-2-1-1",
    ],
)
def test_certifier_runs_the_shipped_rule(monkeypatch, mutant, kind, config):
    """The certifier takes what a deletion keeps from unlearn.couple, so
    a broken rule shows as TV > 0, including one that leaves the restart
    round's multiset to the engine."""
    dataset = _dataset(*config[:2])
    hyper = _hyper(*config)
    cid = dataset.client_ids[-1]
    if kind == "sample":
        uid = dataset.client(cid).uids[0]
        reduced = remove_sample(dataset, cid, uid)
    else:
        uid = None
        reduced = remove_client(dataset, cid)
    request = UnlearnRequest(kind=kind, target_client=cid, target_uid=uid,
                             issue_step=hyper.total_steps)
    retrain = enumerate_history_distribution(hyper, reduced)
    assert tv_distance(unlearned_history_distribution(hyper, dataset, request), retrain) == 0
    monkeypatch.setattr(stability, "couple", mutant)
    assert tv_distance(unlearned_history_distribution(hyper, dataset, request), retrain) > 0


def test_sample_coupling_infeasible_after_deletion(micro_dataset):
    hyper = _hyper(2, 2, 2, 1, 1, 2)  # batch size equals client size
    request = UnlearnRequest(kind="sample", target_client=0,
                             target_uid=micro_dataset.client(0).uids[0],
                             issue_step=2)
    with pytest.raises(InvalidArgumentError):
        unlearned_history_distribution(hyper, micro_dataset, request)


def test_infeasible_deletion_rejected_before_enumerating(micro_dataset, monkeypatch):
    """A deletion that leaves a client smaller than the batch is refused
    before any round outcome is built."""
    def no_outcomes(*args):
        raise AssertionError("a round outcome was built before the request was refused")

    monkeypatch.setattr(stability, "_round_outcomes", no_outcomes)
    hyper = _hyper(2, 2, 2, 1, 1, 2)
    request = UnlearnRequest(kind="sample", target_client=0,
                             target_uid=micro_dataset.client(0).uids[0], issue_step=2)
    with pytest.raises(InvalidArgumentError, match="smaller than the batch size"):
        unlearned_history_distributions(hyper, micro_dataset, request, (FULL_HISTORY, COMPACT))


def _unequal_dataset():
    """Three clients of sizes 2, 3 and 3."""
    dataset = _dataset(3, 3)
    cid = dataset.client_ids[0]
    return remove_sample(dataset, cid, dataset.client(cid).uids[0])


@pytest.mark.parametrize("local_steps,batch_size", [(1, 2), (2, 1)])
def test_integer_weights_exact_on_unequal_clients(local_steps, batch_size):
    """Every history's probability is the product of its multiset's
    probability and 1/C(n_c, b) for every batch drawn from client c,
    when clients differ in size; the probabilities sum to exactly 1."""
    dataset = _unequal_dataset()
    assert sorted(c.size for c in dataset.clients) == [2, 3, 3]
    hyper = _hyper(3, 3, 2 * local_steps, local_steps, 2, batch_size)
    dist = enumerate_history_distribution(hyper, dataset)
    for history, prob in zip(dist.support, dist.probs):
        expected = Fraction(1)
        for multiset, body in history:
            expected *= _multiset_probability(multiset, dataset.num_clients)
            for client_id, batches in body:
                assert len(batches) == local_steps
                for batch in batches:
                    assert len(batch) == batch_size
                    assert set(batch) <= set(dataset.client(client_id).uids)
                    expected /= math.comb(dataset.client(client_id).size, batch_size)
        assert prob == expected
    assert sum(dist.probs) == 1


@pytest.mark.parametrize("kind", ["sample", "client"])
def test_both_modes_match_per_mode_calls_on_unequal_clients(kind):
    """The shared both-modes path gives each mode's distribution exactly
    as a call for that mode alone does, at TV 0 from a retrain."""
    dataset = _unequal_dataset()
    cid = dataset.client_ids[-1]
    uid = dataset.client(cid).uids[0] if kind == "sample" else None
    request = UnlearnRequest(kind=kind, target_client=cid, target_uid=uid, issue_step=2)
    config = (3, 3, 2, 1, 2, 1)
    modes = (FULL_HISTORY, COMPACT)
    both = unlearned_history_distributions(_hyper(*config), dataset, request, modes)
    retrain = enumerate_history_distribution(_hyper(*config), remove_target(dataset, request))
    for mode in modes:
        alone = unlearned_history_distribution(_hyper(*config, storage_mode=mode), dataset, request)
        assert both[mode].as_dict() == alone.as_dict()
        assert tv_distance(both[mode], retrain) == 0


# ----------------------------------------------------------------------
# involvement probabilities


def test_micro_involvement_closed_forms(micro_dataset):
    hyper = micro_hyper()
    assert involvement_probability(
        hyper, micro_dataset, "sample", 1, micro_dataset.client(1).uids[0]
    ) == Fraction(7, 16)
    assert involvement_probability(hyper, micro_dataset, "client", 1) \
        == Fraction(3, 4)


@pytest.mark.parametrize(
    "num_clients,samples,total_steps,local_steps,clients_per_round,batch_size",
    [
        (2, 2, 2, 1, 1, 1),
        (2, 2, 2, 2, 1, 1),
        (3, 2, 2, 1, 2, 1),
        (2, 3, 2, 1, 1, 2),
    ],
)
def test_involvement_matches_enumeration(
    num_clients, samples, total_steps, local_steps, clients_per_round, batch_size
):
    """Closed forms equal the exact mass of involved histories."""
    dataset = _dataset(num_clients, samples)
    hyper = _hyper(num_clients, samples, total_steps, local_steps,
                   clients_per_round, batch_size)
    dist = enumerate_history_distribution(hyper, dataset)
    cid = dataset.client_ids[0]
    uid = dataset.client(cid).uids[0]

    def sample_involved(history):
        for multiset, body in history:
            for body_cid, batches in body:
                if body_cid == cid and any(uid in b for b in batches):
                    return True
        return False

    def client_involved(history):
        return any(cid in multiset for multiset, _ in history)

    sample_mass = sum(
        p for h, p in zip(dist.support, dist.probs) if sample_involved(h)
    )
    client_mass = sum(
        p for h, p in zip(dist.support, dist.probs) if client_involved(h)
    )
    assert involvement_probability(hyper, dataset, "sample", cid, uid) == sample_mass
    assert involvement_probability(hyper, dataset, "client", cid) == client_mass


# ----------------------------------------------------------------------
# tv distance and equivalence harnesses


def test_tv_distance_oracles():
    a = HistoryDistribution(support=("x", "y"), probs=(Fraction(1, 2), Fraction(1, 2)))
    b = HistoryDistribution(support=("x", "y"), probs=(Fraction(1, 4), Fraction(3, 4)))
    c = HistoryDistribution(support=("z",), probs=(Fraction(1),))
    assert tv_distance(a, a) == 0
    assert tv_distance(a, b) == Fraction(1, 4)
    assert tv_distance(a, c) == 1


def test_equivalence_test_exact_verdicts():
    a = HistoryDistribution(support=("x", "y"), probs=(Fraction(1, 2), Fraction(1, 2)))
    b = HistoryDistribution(support=("x", "y"), probs=(Fraction(1, 4), Fraction(3, 4)))
    assert equivalence_test_exact(a, a).passed
    report = equivalence_test_exact(a, b)
    assert not report.passed
    assert "tv=" in report.detail


def _discrete_runner(weights):
    """Cheap runner drawing a label from fixed weights, keyed by seed."""
    labels = list(range(len(weights)))

    def run(seed):
        rng = substream(int(seed), 9, 0)
        return int(rng.choice(labels, p=weights))

    return run


def test_equivalence_mc_accepts_identical_distributions():
    runner = _discrete_runner([0.25, 0.5, 0.25])
    report = equivalence_test_mc(runner, runner, trials=4000, seed=31, name="null")
    assert report.passed
    assert report.pvalue > 0.001


def test_equivalence_mc_rejects_different_distributions():
    a = _discrete_runner([0.25, 0.5, 0.25])
    b = _discrete_runner([0.5, 0.25, 0.25])
    report = equivalence_test_mc(a, b, trials=4000, seed=32, name="alt")
    assert not report.passed
    assert report.pvalue < 0.001


def test_equivalence_mc_null_calibration():
    """The false-rejection rate over many disjoint-seed repetitions stays
    near the nominal level."""
    runner = _discrete_runner([0.4, 0.6])
    rejections = 0
    meta = 200
    for k in range(meta):
        report = equivalence_test_mc(
            runner, runner, trials=600, seed=1000 + k, name="calib"
        )
        rejections += 0 if report.passed else 1
    assert rejections <= 3  # binomial(200, 0.001): P(X > 3) < 1e-8


def test_equivalence_mc_bins_too_fine():
    def runner(seed):
        return int(seed)  # every trial its own bin

    with pytest.raises(BinsTooFineError):
        equivalence_test_mc(runner, runner, trials=50, seed=1)


def test_equivalence_mc_single_bin_passes():
    report = equivalence_test_mc(lambda s: "same", lambda s: "same",
                                 trials=100, seed=2)
    assert report.passed


def test_chi_square_matches_scipy_bit_for_bit():
    """The numpy chi-square gives the statistic and p-value of
    scipy.stats.chi2_contingency(correction=False) to the last bit."""
    import numpy as np
    from scipy.stats import chi2_contingency

    rng = np.random.default_rng(5)
    for _ in range(300):
        columns = int(rng.integers(2, 40))
        trials = int(rng.integers(columns, 20_000))
        counts = rng.multinomial(trials, rng.dirichlet(np.ones(columns)), size=2)
        counts[0] += 1  # no empty column
        table = counts.tolist()
        statistic, pvalue = stability._chi_square_2xk(table)
        expected_statistic, expected_pvalue, _, _ = chi2_contingency(table, correction=False)
        assert statistic == float(expected_statistic)
        assert pvalue == float(expected_pvalue)
