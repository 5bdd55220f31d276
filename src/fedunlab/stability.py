"""Exact distribution lab over sampling histories, plus statistical
equivalence harnesses.

A sampling history is a tuple of store.Round: per round, the drawn
client multiset and, for every distinct selected client, its mini-batch
uid sets for each local iteration, the form the store reads back and a
replay plan pins. This module enumerates the exact rational
distribution over histories for small configurations and checks
distributional identities with zero tolerance. It holds no deletion
rule of its own: the distribution after a deletion runs `unlearn.couple`,
the function the engine's `unlearn_request` runs, on every enumerated
history's rounds, for either store mode. The exact paths count in integers: every round
outcome carries an integer weight over one per-round denominator,
M^K * prod_c C(n_c, b)^E over the dataset's own clients, so a history's
weight is an integer over a known denominator and a Fraction is built
only where a probability or a TV distance is handed out. Floating point
never enters the exact paths.
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
from .store import Round
from .streams import derive_trial_seeds
from .unlearn import couple

ENUMERATION_BUDGET = 10**6

History = tuple[Round, ...]


@dataclass(frozen=True, init=False)
class HistoryDistribution:
    """Finite distribution over canonical sampling histories, held as
    integer weights over one denominator in lowest terms. `probs` and
    `as_dict` hand the probabilities out as Fractions."""

    support: tuple[History, ...]
    weights: tuple[int, ...]
    denominator: int

    def __init__(self, support: Sequence[History], probs: Sequence[Fraction]) -> None:
        if len(support) != len(probs):
            raise InvalidArgumentError("support and probs must align")
        probs = [Fraction(p) for p in probs]
        denominator = math.lcm(*(p.denominator for p in probs))
        weights = (p.numerator * (denominator // p.denominator) for p in probs)
        self._set(tuple(support), tuple(weights), denominator)

    def _set(self, support: tuple, weights: tuple[int, ...], denominator: int) -> None:
        total = sum(weights)
        if total != denominator:
            raise InvalidArgumentError(
                f"probabilities sum to {Fraction(total, denominator)}, not 1"
            )
        common = math.gcd(denominator, *weights)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", tuple(w // common for w in weights))
        object.__setattr__(self, "denominator", denominator // common)

    @property
    def probs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(w, self.denominator) for w in self.weights)

    def as_dict(self) -> dict[History, Fraction]:
        return dict(zip(self.support, self.probs))

    @classmethod
    def from_weights(cls, weights: dict[History, int], denominator: int) -> "HistoryDistribution":
        """The distribution giving each history weight / denominator."""
        items = sorted(weights.items())
        dist = cls.__new__(cls)
        dist._set(tuple(h for h, _ in items), tuple(w for _, w in items), denominator)
        return dist


def _orderings(multiset: tuple[int, ...]) -> int:
    """Number of ordered with-replacement draws giving the multiset: the
    multinomial coefficient."""
    coeff = math.factorial(len(multiset))
    for _, group in itertools.groupby(multiset):
        coeff //= math.factorial(len(tuple(group)))
    return coeff


def _multiset_probability(multiset: tuple[int, ...], num_clients: int) -> Fraction:
    """Probability of an unordered with-replacement draw: the multinomial
    coefficient over the ordered draws, divided by num_clients^len."""
    return Fraction(_orderings(multiset), num_clients ** len(multiset))


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


def _check_feasible(hyper: HyperParams, dataset: FederatedDataset) -> None:
    if dataset.min_client_size() < hyper.batch_size:
        raise InvalidArgumentError("a client is smaller than the batch size")


def _round_denominator(hyper: HyperParams, dataset: FederatedDataset) -> int:
    """D = M^K * prod_c C(n_c, b)^E, over the dataset's own clients: the
    probability of every round outcome is an integer over D."""
    batches = math.prod(math.comb(c.size, hyper.batch_size) for c in dataset.clients)
    return dataset.num_clients**hyper.clients_per_round * batches**hyper.local_steps


def _round_outcomes(
    hyper: HyperParams, dataset: FederatedDataset, pinned: Round | None
) -> list[tuple[Round, int]]:
    """All (round outcome, weight over `_round_denominator`) pairs for one
    round, drawn whole (pinned None) or from a replay plan's round: its
    multiset and the batches that are not None are kept. Every other
    decision is drawn uniformly from the dataset, so the outcomes of one
    multiset are equally likely."""
    steps = hyper.local_steps
    ids = dataset.client_ids
    denominator = _round_denominator(hyper, dataset)
    if pinned is None:
        pinned_batches: dict[int, tuple] = {}
        multisets = [
            (multiset, denominator // len(ids) ** len(multiset) * _orderings(multiset))
            for multiset in itertools.combinations_with_replacement(ids, hyper.clients_per_round)
        ]
    else:
        pinned_batches = dict(pinned[1])
        multisets = [(pinned[0], denominator)]
    outcomes: list[tuple[Round, int]] = []
    for multiset, weight in multisets:
        distinct = sorted(set(multiset))
        slots = []
        for client_id, step in itertools.product(distinct, range(steps)):
            pins = pinned_batches.get(client_id, ())
            batch = pins[step] if step < len(pins) else None
            if batch is None:
                uids = sorted(dataset.client(client_id).uids)
                slots.append(list(itertools.combinations(uids, hyper.batch_size)))
                weight //= len(slots[-1])
            else:
                slots.append((batch,))
        for batches in itertools.product(*slots):
            body = tuple(
                (client_id, batches[i * steps : (i + 1) * steps])
                for i, client_id in enumerate(distinct)
            )
            outcomes.append(((multiset, body), weight))
    return outcomes


def _complete(
    hyper: HyperParams, dataset: FederatedDataset, groups: dict[tuple, int]
) -> HistoryDistribution:
    """Distribution over histories when each group of per-round pins
    carries an integer mass and every unpinned decision is drawn from
    the dataset. Rounds are independent given their pins, and a round's
    outcomes depend on its pins alone, so each is built once per call."""
    outcomes: dict[tuple, list[tuple[Round, int]]] = {}
    acc: dict[History, int] = {}
    for pins, mass in groups.items():
        partial: list[tuple[History, int]] = [((), mass)]
        for round_pins in pins:
            if round_pins not in outcomes:
                outcomes[round_pins] = _round_outcomes(hyper, dataset, round_pins)
            rounds = outcomes[round_pins]
            partial = [(h + (o,), w * x) for h, w in partial for o, x in rounds]
        for history, weight in partial:
            acc[history] = acc.get(history, 0) + weight
    total = sum(groups.values()) * _round_denominator(hyper, dataset) ** hyper.rounds
    return HistoryDistribution.from_weights(acc, total)


def enumerate_history_distribution(
    hyper: HyperParams, dataset: FederatedDataset
) -> HistoryDistribution:
    """Exact distribution over full sampling histories of a training run
    on the given dataset: every round drawn with nothing pinned."""
    _check_budget(hyper, dataset)
    _check_feasible(hyper, dataset)
    return _complete(hyper, dataset, {(None,) * hyper.rounds: 1})


def _first_use(request: UnlearnRequest, r: int, outcome: Round, steps: int) -> int | None:
    """The target's first use in round r of a history, as the store's
    index would report it (None: unused)."""
    multiset, body = outcome
    base = (r - 1) * steps
    if request.kind == "client":
        return base + 1 if request.target_client in multiset else None
    return min((
        base + step
        for _, batches in body
        for step, batch in enumerate(batches, start=1)
        if request.target_uid in batch
    ), default=None)


def unlearned_history_distributions(
    hyper: HyperParams,
    dataset: FederatedDataset,
    request: UnlearnRequest,
    modes: Sequence[str],
) -> dict[str, HistoryDistribution]:
    """Exact distribution over final histories after training on the
    full dataset and servicing one deletion request, for a store in each
    of the given modes.

    The deletion rule is the engine's own: `unlearn.couple` runs on every
    enumerated history, fed its rounds and the first use the store's
    index would report. The rounds before the one holding the start it
    returns, plus the rounds of its replay plan, are pinned, exactly what
    the engine keeps; histories with equal pins are grouped and each
    group is completed once over the reduced dataset. Training pins
    nothing, so the original histories are the product of one round's
    outcomes; they and each round's first use are derived once for all
    modes. A request whose reduced dataset cannot supply a batch is
    refused before anything is enumerated.
    """
    _check_budget(hyper, dataset)
    reduced = remove_target(dataset, request)
    _check_feasible(hyper, reduced)
    _check_feasible(hyper, dataset)
    steps, total = hyper.local_steps, hyper.rounds
    outcomes = _round_outcomes(hyper, dataset, None)
    per_round = [
        [(weight, outcome, _first_use(request, r, outcome, steps)) for outcome, weight in outcomes]
        for r in range(1, total + 1)
    ]
    groups: dict[str, dict[tuple, int]] = {mode: {} for mode in modes}
    for history in itertools.product(*per_round):
        weights, rounds, uses = zip(*history)
        weight = math.prod(weights)
        first_use = next((use for use in uses if use is not None), None)
        for mode, mode_groups in groups.items():
            start, plan = couple(request, mode, first_use, enumerate(rounds, start=1), steps)
            kept = total if start is None else (start - 1) // steps
            pins = rounds[:kept] + tuple(map(plan.get, range(kept + 1, total + 1)))
            mode_groups[pins] = mode_groups.get(pins, 0) + weight
    return {mode: _complete(hyper, reduced, mode_groups) for mode, mode_groups in groups.items()}


def unlearned_history_distribution(
    hyper: HyperParams,
    dataset: FederatedDataset,
    request: UnlearnRequest,
) -> HistoryDistribution:
    """`unlearned_history_distributions` for hyper.storage_mode alone."""
    mode = hyper.storage_mode
    return unlearned_history_distributions(hyper, dataset, request, (mode,))[mode]


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
    """Exact total variation distance between two history distributions,
    summed over integer numerators on the common denominator."""
    db = dict(zip(b.support, b.weights))
    gap = 0
    for history, weight in zip(a.support, a.weights):
        gap += abs(weight * b.denominator - db.pop(history, 0) * a.denominator)
    gap += sum(db.values()) * a.denominator
    return Fraction(gap, 2 * a.denominator * b.denominator)


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


# the smallest expected bin count the chi-square approximation accepts
MIN_EXPECTED_COUNT = 5.0


def equivalence_test_mc(
    runner_a: Callable[[int], Hashable],
    runner_b: Callable[[int], Hashable],
    *,
    trials: int,
    seed: int,
    alpha: float = 0.001,
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
        if expected < MIN_EXPECTED_COUNT:
            raise BinsTooFineError(
                f"bin {bins[column]!r} has expected count {expected:.2f} < "
                f"{MIN_EXPECTED_COUNT}; coarsen the binning or add trials"
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
