"""Exact distribution lab over sampling histories, plus statistical
equivalence harnesses.

A sampling history is, per round, the drawn client multiset and, for
every distinct selected client, its mini-batch uid sets for each local
iteration. This module enumerates the exact rational distribution over
histories for small configurations and checks distributional identities
with zero tolerance. It holds no deletion rule of its own: the
distribution after a deletion runs `unlearn.couple`, the function the
engine's `unlearn_request` runs, on every enumerated history, for
either store mode. All probabilities are Fractions; floating point never
enters the exact paths.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Sequence

import numpy as np

from .data import FederatedDataset, HyperParams, UnlearnRequest, remove_target
from .errors import (
    BinsTooFineError,
    InvalidArgumentError,
    TooLargeToEnumerateError,
)
from .streams import derive_trial_seeds
from .unlearn import couple, round_start

ENUMERATION_BUDGET = 10**6

Round = tuple[tuple[int, ...], tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]]
History = tuple[Round, ...]


@dataclass(frozen=True)
class HistoryDistribution:
    """Finite distribution over canonical sampling histories."""

    support: tuple[History, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.support) != len(self.probs):
            raise InvalidArgumentError("support and probs must align")
        total = sum(self.probs, Fraction(0))
        if total != 1:
            raise InvalidArgumentError(f"probabilities sum to {total}, not 1")

    def as_dict(self) -> dict[History, Fraction]:
        return dict(zip(self.support, self.probs))

    @classmethod
    def from_dict(cls, dist: dict[History, Fraction]) -> "HistoryDistribution":
        items = sorted(dist.items())
        return cls(
            support=tuple(h for h, _ in items),
            probs=tuple(p for _, p in items),
        )


def _multiset_probability(multiset: tuple[int, ...], num_clients: int) -> Fraction:
    """Probability of an unordered with-replacement draw: the multinomial
    coefficient over the ordered draws, divided by num_clients^len."""
    count = len(multiset)
    coeff = math.factorial(count)
    for _, group in itertools.groupby(multiset):
        coeff //= math.factorial(len(tuple(group)))
    return Fraction(coeff, num_clients**count)


def enumeration_budget(hyper: HyperParams, dataset: FederatedDataset) -> int:
    """Upper bound on the number of distinct histories."""
    clients = dataset.num_clients
    largest = max(c.size for c in dataset.clients)
    per_client_batches = math.comb(largest, min(hyper.batch_size, largest))
    per_round = clients**hyper.clients_per_round * per_client_batches ** (
        hyper.clients_per_round * hyper.local_steps
    )
    return per_round**hyper.rounds


def _check_budget(hyper: HyperParams, dataset: FederatedDataset) -> None:
    if enumeration_budget(hyper, dataset) > ENUMERATION_BUDGET:
        raise TooLargeToEnumerateError(
            f"history space exceeds the enumeration budget of {ENUMERATION_BUDGET}"
        )


def _round_outcomes(
    hyper: HyperParams, dataset: FederatedDataset, pins: tuple
) -> list[tuple[Round, Fraction]]:
    """All (round outcome, probability) pairs for one round. pins holds
    the round's multiset (None: drawn) and the batches pinned by (local
    step, client); every other decision is drawn uniformly from the
    dataset, so the outcomes of one multiset are equally likely."""
    multiset_pin, batch_pins = pins
    pinned = dict(batch_pins)
    steps = hyper.local_steps
    ids = dataset.client_ids
    multisets = [(multiset_pin, Fraction(1))] if multiset_pin is not None else [
        (multiset, _multiset_probability(multiset, len(ids)))
        for multiset in itertools.combinations_with_replacement(ids, hyper.clients_per_round)
    ]
    outcomes: list[tuple[Round, Fraction]] = []
    for multiset, prob in multisets:
        distinct = sorted(set(multiset))
        slots = []
        for client_id, step in itertools.product(distinct, range(steps)):
            batch = pinned.get((step, client_id))
            if batch is None:
                uids = sorted(dataset.client(client_id).uids)
                slots.append(list(itertools.combinations(uids, hyper.batch_size)))
                prob /= len(slots[-1])
            else:
                slots.append((batch,))
        for batches in itertools.product(*slots):
            body = tuple(
                (client_id, batches[i * steps : (i + 1) * steps])
                for i, client_id in enumerate(distinct)
            )
            outcomes.append(((multiset, body), prob))
    return outcomes


def _complete(
    hyper: HyperParams, dataset: FederatedDataset, groups: dict[tuple, Fraction]
) -> HistoryDistribution:
    """Distribution over histories when each group of per-round pins
    carries its mass and every unpinned decision is drawn from the
    dataset. Rounds are independent given their pins."""
    if dataset.min_client_size() < hyper.batch_size:
        raise InvalidArgumentError("a client is smaller than the batch size")
    acc: dict[History, Fraction] = {}
    for pins, mass in groups.items():
        rounds = [_round_outcomes(hyper, dataset, round_pins) for round_pins in pins]
        for combo in itertools.product(*rounds):
            prob = mass
            for _, p in combo:
                prob *= p
            history = tuple(outcome for outcome, _ in combo)
            acc[history] = acc.get(history, Fraction(0)) + prob
    return HistoryDistribution.from_dict(acc)


def enumerate_history_distribution(
    hyper: HyperParams, dataset: FederatedDataset
) -> HistoryDistribution:
    """Exact distribution over full sampling histories of a training run
    on the given dataset: every round drawn with nothing pinned."""
    _check_budget(hyper, dataset)
    return _complete(hyper, dataset, {((None, ()),) * hyper.rounds: Fraction(1)})


def unlearned_history_distribution(
    hyper: HyperParams,
    dataset: FederatedDataset,
    request: UnlearnRequest,
) -> HistoryDistribution:
    """Exact distribution over final histories after training on the
    full dataset and servicing one deletion request on a store in
    hyper.storage_mode.

    The deletion rule is the engine's own: `unlearn.couple` runs on every
    enumerated history, fed the first use the store's index would
    report. The rounds before the one holding the start it returns, plus
    its replay plan, are pinned, exactly what the engine keeps;
    histories with equal pins are grouped and each group is completed
    once over the reduced dataset.
    """
    _check_budget(hyper, dataset)
    reduced = remove_target(dataset, request)
    steps = hyper.local_steps
    groups: dict[tuple, Fraction] = {}
    original = enumerate_history_distribution(hyper, dataset)
    for history, prob in zip(original.support, original.probs):
        multisets = [(r, multiset) for r, (multiset, _) in enumerate(history, start=1)]
        records = [
            (((r - 1) * steps + step, client_id), batch)
            for r, (_, body) in enumerate(history, start=1)
            for client_id, batches in body
            for step, batch in enumerate(batches, start=1)
        ]
        if request.kind == "sample":
            uses = [t for (t, _), batch in records if request.target_uid in batch]
        else:
            uses = [(r - 1) * steps + 1 for r, m in multisets if request.target_client in m]
        start, plan = couple(
            request, hyper.storage_mode, min(uses, default=None), multisets, records, steps
        )
        end = hyper.total_steps + 1 if start is None else round_start(start, steps)
        kept = {r: m for r, m in multisets if (r - 1) * steps + 1 < end}
        kept.update(plan.round_multisets)
        batches = [(key, batch) for key, batch in records if key[0] < end]
        batches.extend(plan.batches.items())
        pins = tuple(
            (kept.get(r), tuple(sorted(
                (((t - 1) % steps, client_id), batch)
                for (t, client_id), batch in batches
                if (t - 1) // steps == r - 1
            )))
            for r in range(1, hyper.rounds + 1)
        )
        groups[pins] = groups.get(pins, Fraction(0)) + prob
    return _complete(hyper, reduced, groups)


def involvement_probability(
    hyper: HyperParams,
    dataset: FederatedDataset,
    kind: str,
    client_id: int,
    uid: int | None = None,
) -> Fraction:
    """Exact probability that a target is touched by a training run.

    Per round, a specific client is selected with probability
    1 - ((M-1)/M)^K; given selection, a specific point appears in at
    least one of the round's batches with probability 1 - (1 - b/N)^E,
    because a single uniform batch contains a fixed point with
    probability exactly b/N. Rounds are independent.
    """
    clients = dataset.num_clients
    selected = 1 - Fraction(clients - 1, clients) ** hyper.clients_per_round
    if kind == "client":
        per_round = selected
    elif kind == "sample":
        size = dataset.client(client_id).size
        hit = 1 - (1 - Fraction(hyper.batch_size, size)) ** hyper.local_steps
        per_round = selected * hit
    else:
        raise InvalidArgumentError(f"unknown kind {kind!r}")
    return 1 - (1 - per_round) ** hyper.rounds


def tv_distance(a: HistoryDistribution, b: HistoryDistribution) -> Fraction:
    """Exact total variation distance between two history distributions."""
    da, db = a.as_dict(), b.as_dict()
    keys = set(da) | set(db)
    gap = sum(
        (abs(da.get(k, Fraction(0)) - db.get(k, Fraction(0))) for k in keys),
        Fraction(0),
    )
    return gap / 2


@dataclass(frozen=True)
class EquivalenceReport:
    """Structured verdict of one equivalence check."""

    name: str
    mode: str  # "exact_enumeration" or "chi_square_mc"
    statistic: float
    pvalue: float | None
    threshold: float
    verdict: str  # "pass" or "fail"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def record(self) -> str:
        pvalue = "-" if self.pvalue is None else f"{self.pvalue:.6g}"
        return (
            f"{self.name} mode={self.mode} statistic={self.statistic:.6g} "
            f"pvalue={pvalue} threshold={self.threshold:g} verdict={self.verdict}"
        )


def equivalence_test_exact(
    a: HistoryDistribution, b: HistoryDistribution, name: str = "exact"
) -> EquivalenceReport:
    """Zero-tolerance distributional identity via exact TV distance."""
    gap = tv_distance(a, b)
    return EquivalenceReport(
        name=name,
        mode="exact_enumeration",
        statistic=float(gap),
        pvalue=None,
        threshold=0.0,
        verdict="pass" if gap == 0 else "fail",
        detail=f"tv={gap}",
    )


def _chi_square_2xk(table: list[list[int]]) -> tuple[float, float]:
    """Pearson's chi-square test of independence on a 2 x k table with no
    empty column, computed in the order scipy.stats.chi2_contingency
    (correction=False) computes it, so both give the same bits."""
    from scipy.special import chdtrc  # far lighter than scipy.stats

    observed = np.asarray(table, dtype=np.float64)
    expected = (
        observed.sum(axis=1, keepdims=True) * observed.sum(axis=0, keepdims=True)
        / observed.sum()
    )
    statistic = ((observed - expected) ** 2 / expected).sum()
    return float(statistic), float(chdtrc(observed.shape[1] - 1, statistic))


def equivalence_test_mc(
    runner_a: Callable[[int], Hashable],
    runner_b: Callable[[int], Hashable],
    *,
    trials: int,
    seed: int,
    alpha: float = 0.001,
    min_expected: float = 5.0,
    name: str = "mc",
) -> EquivalenceReport:
    """Two-sample chi-square test on binned pipeline outputs.

    Each runner maps an independent trial seed to a hashable bin label
    (canonical history, hash, or any discretized statistic). The test
    fails only below the configured significance level, so identical
    pipelines pass with probability 1 - alpha. Raises when any expected
    bin count is too small for the chi-square approximation.
    """
    if trials < 1:
        raise InvalidArgumentError("trials must be >= 1")
    seeds_a = derive_trial_seeds(seed, trials, salt=101)
    seeds_b = derive_trial_seeds(seed, trials, salt=202)
    counts_a = Counter(runner_a(s) for s in seeds_a)
    counts_b = Counter(runner_b(s) for s in seeds_b)
    bins = sorted(set(counts_a) | set(counts_b), key=repr)
    table = [
        [counts_a.get(bin_key, 0) for bin_key in bins],
        [counts_b.get(bin_key, 0) for bin_key in bins],
    ]
    total = 2 * trials
    for column in range(len(bins)):
        column_total = table[0][column] + table[1][column]
        expected = column_total * trials / total
        if expected < min_expected:
            raise BinsTooFineError(
                f"bin {bins[column]!r} has expected count {expected:.2f} < "
                f"{min_expected}; coarsen the binning or add trials"
            )
    if len(bins) < 2:
        # Identical single-bin outputs: trivially indistinguishable.
        return EquivalenceReport(
            name=name, mode="chi_square_mc", statistic=0.0, pvalue=1.0,
            threshold=alpha, verdict="pass", detail="single shared bin",
        )
    statistic, pvalue = _chi_square_2xk(table)
    verdict = "fail" if pvalue < alpha else "pass"
    return EquivalenceReport(
        name=name,
        mode="chi_square_mc",
        statistic=float(statistic),
        pvalue=float(pvalue),
        threshold=alpha,
        verdict=verdict,
        detail=f"bins={len(bins)} trials={trials}",
    )
