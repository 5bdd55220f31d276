"""The three workloads: inputs built from the seed, and one round of
operations that a run repeats until its time is up.

Every round of a workload runs the same phases: train, a deletion
stream, a checkpoint round trip, the criterion-3 Monte-Carlo pipeline
and exact certification. The workloads differ in size, so a different
layer dominates each:

- serve-long: a 10^4-iteration horizon on 20 clients x 2,000 points;
  each request deletes a point first used near the end, so a suffix of
  about ten iterations is recomputed and costs that grow with the
  horizon (replay plan, prune, digest, checkpoint codec) dominate.
- serve-churn: a 1,500-iteration horizon on 20 clients x 50 points;
  every fourth request deletes a client, the others delete a client's
  earliest-used point, so nearly the whole horizon is recomputed and
  the engine, loss and store writes dominate.
- lab: the criterion-3 micro pipeline (2 clients x 2 points, T=2) for
  10^4 trials per arm, and exact certification on the largest setup
  that certifies in about a second; per-call overhead and enumeration
  dominate. Its train and delete figures come from the same micro
  pipeline, its checkpoint figures from that set-up trained for 2,000
  iterations.

The serve workloads run the Monte-Carlo and certification phases at a
small size only, so that every workload reports every metric.
"""

from __future__ import annotations

import gc
import io
import os
import statistics
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from fedunlab import (
    FULL_HISTORY,
    HistoryStore,
    HyperParams,
    UnlearnRequest,
    enumerate_history_distribution,
    equivalence_test_mc,
    generate_synthetic,
    load_checkpoint,
    make_loss,
    process_stream,
    remove_sample,
    run_fats,
    save_checkpoint,
    tv_distance,
    unlearned_history_distribution,
)
from fedunlab.cli import main as cli_main

from checks import (
    check_certified,
    check_client_deletion,
    check_replay,
    check_roundtrip,
    check_sample_deletion,
    fingerprint,
    first_uses,
    point_table,
    require,
)

# Chi-square significance for the Monte-Carlo check. At 1e-6 a correct
# pipeline is wrongly rejected about once in a million runs, while the
# no-recompute mutation is still rejected with p far below it.
ALPHA = 1e-6


class Recorder:
    """Timings, operation counts and per-round counters of one run."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.phase_s: dict[str, float] = {}
        self.tracer = None  # set while a round is traced
        self.counters: dict[str, int] = {}

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def timed(self, phase: str, fn, *args, request: int | None = None, settle: bool = True):
        """Run one operation of the program inside a timed phase.

        A full collection first clears the garbage the benchmark's own
        checks left, so the operation pays only for the collections its
        own allocations trigger, as it would in a serving loop."""
        context = self.tracer.phase(phase, request) if self.tracer else nullcontext()
        self.attempted += 1
        if settle:
            gc.collect()
        with context:
            start = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - start
        self.phase_s[phase] = self.phase_s.get(phase, 0.0) + elapsed
        return result, elapsed


@dataclass(frozen=True)
class Micro:
    """Inputs of the criterion-3 pipeline: train on 2 clients x 2
    points for T=2, then delete client 1's first point.

    The pipeline's train and delete timings are recorded under
    ``prefix``: lab reports them as its train and delete figures (no
    prefix); the serve workloads keep them apart from their own."""

    dataset: object
    reduced: object
    hyper: HyperParams
    loss: object
    request: UnlearnRequest
    prefix: str

    @classmethod
    def build(cls, seed: int, prefix: str) -> "Micro":
        dataset = generate_synthetic(
            num_clients=2, samples_per_client=2, dim=1, classes=2, beta=0.5, seed=seed
        )
        hyper = HyperParams.from_budgets(
            rho_sample=0.5, rho_client=1.0, num_clients=2, samples_per_client=2,
            total_steps=2, local_steps=1, lr=0.1, seed=seed,
        )
        uid = dataset.client(1).uids[0]
        request = UnlearnRequest(kind="sample", target_client=1, target_uid=uid, issue_step=2)
        return cls(dataset, remove_sample(dataset, 1, uid), hyper,
                   make_loss("quadratic", 1), request, prefix)

    def train(self, rec: Recorder, hyper: HyperParams, dataset) -> HistoryStore:
        store = HistoryStore(FULL_HISTORY, hyper.local_steps)
        start = perf_counter()
        run_fats(1, hyper, dataset, store, self.loss)
        rec.add(self.prefix + "train_s", perf_counter() - start)
        rec.add(self.prefix + "train_iters", hyper.total_steps)
        return store

    def delete(self, rec: Recorder, store: HistoryStore, hyper: HyperParams) -> None:
        start = perf_counter()
        outcomes, _ = process_stream([self.request], store, self.dataset, hyper, self.loss)
        rec.add(self.prefix + "delete_s", perf_counter() - start)
        rec.add(self.prefix + "recomputed", outcomes[0].retrained_iterations)
        rec.count("unlearn.requests")
        rec.count("unlearn.probes", outcomes[0].probes)
        if outcomes[0].action == "stale":
            rec.failed += 1

    def runners(self, rec: Recorder):
        def unlearned(seed):
            hyper = replace(self.hyper, seed=int(seed))
            store = self.train(rec, hyper, self.dataset)
            self.delete(rec, store, hyper)
            return store.history_tuple()

        def retrained(seed):
            hyper = replace(self.hyper, seed=int(seed))
            return self.train(rec, hyper, self.reduced).history_tuple()

        def mutated(seed):
            # deletes the data but never recomputes
            hyper = replace(self.hyper, seed=int(seed))
            return self.train(rec, hyper, self.dataset).history_tuple()

        runners = (unlearned, retrained, mutated)
        if rec.tracer is not None:
            runners = tuple(rec.tracer.wrap("bench.pipeline", r) for r in runners)
        return runners

    def equivalence(self, rec: Recorder, seed: int, trials: int, mutation_trials: int):
        """Criterion 3: unlearn-vs-retrain must pass, the no-recompute
        mutation must fail. Returns the two chi-square statistics."""
        unlearned, retrained, mutated = self.runners(rec)
        elapsed = 0.0
        reports = []
        for arm, count, salt in ((unlearned, trials, 0), (mutated, mutation_trials, 1)):
            report, seconds = rec.timed(
                "mc", lambda a=arm, n=count, s=salt: equivalence_test_mc(
                    a, retrained, trials=n, seed=seed + s, alpha=ALPHA
                )
            )
            rec.attempted += 2 * count - 1
            elapsed += seconds
            reports.append(report)
        rec.add("mc_s", elapsed)
        rec.add("mc_pipelines", 2 * (trials + mutation_trials))
        passed, mutation = reports
        require(passed.passed, f"unlearn-vs-retrain rejected: {passed.record()}")
        require(not mutation.passed, f"no-recompute mutation not detected: {mutation.record()}")
        return passed.statistic, mutation.statistic


@dataclass(frozen=True)
class Certify:
    """Arguments of ``fedunlab verify`` for one exact certification."""

    clients: int
    points: int
    total_steps: int
    repeats: int
    rho_sample: float = 0.5
    rho_client: float = 1.0

    def argv(self, kind: str, seed: int) -> list[str]:
        return [
            "verify", "--kind", kind, "--num-clients", str(self.clients),
            "--samples-per-client", str(self.points), "--total-steps", str(self.total_steps),
            "--local-steps", "1", "--rho-sample", str(self.rho_sample),
            "--rho-client", str(self.rho_client), "--seed", str(seed),
        ]

    def run(self, rec: Recorder, seed: int) -> str:
        """Certify one sample and one client deletion, ``repeats`` times."""
        outputs = set()
        # One collection for the garbage of the phases before, then a loop
        # of short calls that a collection each would swamp.
        gc.collect()
        for _ in range(self.repeats):
            total = 0.0
            for kind in ("sample", "client"):
                out = io.StringIO()
                with redirect_stdout(out):
                    code, seconds = rec.timed(
                        "certify", cli_main, self.argv(kind, seed), settle=False
                    )
                total += seconds
                text = out.getvalue()
                check_certified(code, text, kind)
                outputs.add((kind, text))
            rec.add("certify_s", total)
        require(len(outputs) == 2, "repeated certifications printed different results")
        return repr(sorted(outputs))

    def check_nonvacuous(self, seed: int) -> None:
        """The certifier can see a difference: the unlearned history
        distribution is at TV > 0 from training on the unreduced data.
        The inputs are rebuilt the way ``fedunlab verify`` builds them."""
        dataset = generate_synthetic(
            num_clients=self.clients, samples_per_client=self.points, dim=1,
            classes=2, beta=0.5, seed=seed,
        )
        hyper = HyperParams.from_budgets(
            rho_sample=self.rho_sample, rho_client=self.rho_client,
            num_clients=self.clients, samples_per_client=self.points,
            total_steps=self.total_steps, local_steps=1, lr=0.1, seed=seed,
        )
        client = dataset.client_ids[0]
        full = enumerate_history_distribution(hyper, dataset)
        for kind in ("sample", "client"):
            request = UnlearnRequest(
                kind=kind, target_client=client,
                target_uid=dataset.client(client).uids[0] if kind == "sample" else None,
                issue_step=hyper.total_steps,
            )
            gap = tv_distance(unlearned_history_distribution(hyper, dataset, request), full)
            require(gap > 0, f"{kind} deletion is at TV 0 from the unreduced data")


SERVE_MC_TRIALS = 500
SERVE_CERTIFY = Certify(clients=2, points=3, total_steps=3, repeats=5)


@dataclass(frozen=True)
class ServeShape:
    clients: int
    points: int
    horizon: int
    clients_per_round: int
    requests: int
    churn: bool  # False: ten recomputed iterations a request; True: churn mix
    trainings: int  # at each of the round's three training points


SHAPES = {
    # Two clients of four points per iteration leave e^-2 (13%) of the points
    # unused, about one first use per iteration near the end, so each
    # request finds a point first used close to the iteration it aims at.
    "serve-long": ServeShape(
        clients=20, points=2000, horizon=10_000, clients_per_round=2, requests=12,
        churn=False, trainings=1,
    ),
    # Its trainings are short, so two at each point keep their share of
    # the run, and with it the spread of the training figure, near
    # serve-long's.
    "serve-churn": ServeShape(
        clients=20, points=50, horizon=1_500, clients_per_round=4, requests=12,
        churn=True, trainings=2,
    ),
}


class Serve:
    """Train, serve a deletion stream one request per call, checkpoint."""

    local_steps = 5
    batch_size = 4
    dim = 8
    ckpt_average = staticmethod(statistics.fmean)

    def __init__(self, name: str, seed: int, out_dir: str) -> None:
        shape = SHAPES[name]
        self.shape = shape
        self.seed = seed
        self.path = os.path.join(out_dir, f"ckpt-{name}.txt")
        self.dataset = generate_synthetic(
            num_clients=shape.clients, samples_per_client=shape.points, dim=self.dim,
            classes=2, beta=0.5, seed=seed,
        )
        steps = shape.horizon
        per_round = shape.clients_per_round
        self.hyper = HyperParams(
            num_clients=shape.clients,
            samples_per_client=shape.points,
            total_steps=steps,
            local_steps=self.local_steps,
            clients_per_round=per_round,
            batch_size=self.batch_size,
            lr=0.05,
            rho_sample=self.batch_size * per_round * steps / (shape.clients * shape.points),
            rho_client=per_round * steps / (self.local_steps * shape.clients),
            seed=seed,
        )
        self.loss = make_loss("logistic", self.dim)
        self.table = point_table(self.dataset)
        self.micro = Micro.build(seed, prefix="mc.")

    def next_request(
        self, index: int, history, dataset, rng, recomputed: int
    ) -> tuple[UnlearnRequest, int]:
        """The request to serve next and the iteration it must restart at,
        both read from the current history."""
        steps = self.hyper.total_steps
        first = first_uses(history, self.local_steps)
        if not self.shape.churn:
            # the point whose first use is nearest the iteration that brings
            # the round's recomputed iterations to ten per request so far,
            # so every seed recomputes about the same total
            aim = steps + 1 - max(1, 10 * (index + 1) - recomputed)
            uid, (t, cid) = min(first.items(), key=lambda item: (abs(item[1][0] - aim), item[0]))
            return UnlearnRequest("sample", cid, uid, steps), t
        clients = dataset.client_ids
        cid = clients[int(rng.integers(len(clients)))]
        if index % 4 == 3:
            start = next(r for r, (ms, _) in enumerate(history) if cid in ms)
            return UnlearnRequest("client", cid, None, steps), start * self.local_steps + 1
        t, uid = min((t, uid) for uid, (t, c) in first.items() if c == cid)
        return UnlearnRequest("sample", cid, uid, steps), t

    def train(self, rec: Recorder) -> tuple[HistoryStore, tuple, str]:
        """One timed training over the full horizon: its store, history
        and fingerprint."""
        store = HistoryStore(FULL_HISTORY, self.local_steps)
        _, seconds = rec.timed("train", run_fats, 1, self.hyper, self.dataset, store, self.loss)
        rec.add("train_s", seconds)
        rec.add("train_iters", self.hyper.total_steps)
        history = store.history_tuple()
        return store, history, fingerprint(history, store.latest_global_model().tobytes())

    def retrain(self, rec: Recorder, trained: str, times: int) -> None:
        """More trainings of the same seed, which must match the first."""
        for _ in range(times):
            _, _, again = self.train(rec)
            require(again == trained, "two trainings of one seed differ")

    def round(self, rec: Recorder, first_round: bool) -> str:
        """Train, serve the stream, round-trip a checkpoint, and run the
        Monte-Carlo test and certification.

        The round trains at three points, serves the stream in two
        halves, and runs the Monte-Carlo test, certification and the
        checkpoint round trip twice, each between other phases, so that
        every figure's samples spread over the run: the host's speed
        changes for stretches of seconds to minutes, and a figure taken
        in one stretch of the run follows that stretch's speed."""
        hyper, loss = self.hyper, self.loss
        trainings = self.shape.trainings
        store, history, trained = self.train(rec)
        self.retrain(rec, trained, trainings - 1)
        if rec.tracer is not None:
            rec.counters["store.words"] = store.storage_word_count()

        dataset = self.dataset
        table = {cid: dict(points) for cid, points in self.table.items()}
        rng = np.random.default_rng([self.seed, 1])
        recomputed = 0

        def serve(indices) -> None:
            nonlocal dataset, history, recomputed
            for index in indices:
                request, restart = self.next_request(index, history, dataset, rng, recomputed)
                (outcomes, dataset), seconds = rec.timed(
                    "stream", process_stream, [request], store, dataset, hyper, loss,
                    request=index,
                )
                outcome = outcomes[0]
                rec.add("delete_s", seconds)
                rec.add("recomputed", outcome.retrained_iterations)
                recomputed += outcome.retrained_iterations
                rec.count("unlearn.requests")
                rec.count("unlearn.probes", outcome.probes)
                if outcome.action != "partial_retrain":
                    rec.failed += 1
                    continue
                require(outcome.from_iteration == restart,
                        f"request {index} restarted at {outcome.from_iteration}, not {restart}")
                after = store.history_tuple()
                cid = request.target_client
                if request.kind == "sample":
                    check_sample_deletion(history, after, request.target_uid)
                    require(not dataset.client(cid).has_uid(request.target_uid),
                            "deleted point is still in the reduced dataset")
                    del table[cid][request.target_uid]
                else:
                    check_client_deletion(history, after, cid)
                    require(not dataset.has_client(cid), "deleted client is still in the dataset")
                    del table[cid]
                history = after

        def lab_phases() -> tuple:
            statistics_ = self.micro.equivalence(rec, self.seed, SERVE_MC_TRIALS, SERVE_MC_TRIALS)
            return statistics_, SERVE_CERTIFY.run(rec, self.seed)

        half = self.shape.requests // 2
        serve(range(half))
        lab = lab_phases()
        self.retrain(rec, trained, trainings)
        serve(range(half, self.shape.requests))
        final = store.latest_global_model()
        if first_round:
            check_replay(final, history, table, loss_name="logistic", dim=self.dim,
                         lr=hyper.lr, local_steps=self.local_steps)
            SERVE_CERTIFY.check_nonvacuous(self.seed)

        def checkpoint() -> bytes:
            _, seconds = rec.timed("ckpt_save", save_checkpoint, store, hyper, dataset, self.path)
            rec.add("save_s", seconds)
            with open(self.path, "rb") as handle:
                saved = handle.read()
            rec.add("ckpt_bytes", len(saved))
            (loaded, loaded_hyper), seconds = rec.timed(
                "ckpt_load", load_checkpoint, self.path, dataset
            )
            rec.add("load_s", seconds)
            require(loaded_hyper == hyper, "hyper-parameters changed in the round trip")
            check_roundtrip(store, loaded, hyper.rounds)
            return saved

        saved = checkpoint()
        self.retrain(rec, trained, trainings)
        require(lab_phases() == lab, "the Monte-Carlo test or certification changed on a rerun")
        require(checkpoint() == saved, "two saves of one store differ")
        return fingerprint(trained, history, final.tobytes(), saved, lab)


LAB_TRIALS = 10_000
LAB_MUTATION_TRIALS = 2_000
LAB_CKPT_REPEATS = 10
LAB_CKPT_HORIZON = 2_000
# Quadratic SGD steps diverge once lr * x^2 > 2: at the micro set-up's
# lr of 0.1 a feature above 4.5 does (seed 301 has 6.8) over 2,000
# iterations. Features sit near 2 and 4 with unit variance, so 0.01 holds.
LAB_CKPT_LR = 0.01
LAB_CERTIFY = Certify(clients=2, points=3, total_steps=4, repeats=2)


class Lab:
    """Monte-Carlo equivalence and exact certification on micro set-ups,
    and the checkpoint round trip of the micro set-up at T=2,000."""

    ckpt_average = staticmethod(statistics.median)

    def __init__(self, name: str, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.path = os.path.join(out_dir, f"ckpt-{name}.txt")
        self.micro = Micro.build(seed, prefix="")
        self.table = point_table(self.micro.reduced)

    def round(self, rec: Recorder, first_round: bool) -> str:
        statistics_ = self.micro.equivalence(rec, self.seed, LAB_TRIALS, LAB_MUTATION_TRIALS)

        # The micro set-up trained over a longer horizon, so the checkpoint
        # codec, not the file system's latency, sets the checkpoint timings.
        micro = self.micro
        hyper = replace(micro.hyper, total_steps=LAB_CKPT_HORIZON, lr=LAB_CKPT_LR)
        store = HistoryStore(FULL_HISTORY, hyper.local_steps)
        rec.attempted += 2
        run_fats(1, hyper, micro.dataset, store, micro.loss)
        before = store.history_tuple()
        rec.counters["store.words"] = store.storage_word_count()
        (outcome,), reduced = process_stream([micro.request], store, micro.dataset, hyper, micro.loss)
        if outcome.action == "stale":
            rec.failed += 1
        after = store.history_tuple()
        check_sample_deletion(before, after, micro.request.target_uid)
        final = store.latest_global_model()
        check_replay(final, after, self.table, loss_name="quadratic", dim=1,
                     lr=hyper.lr, local_steps=hyper.local_steps)
        saved = None
        # One collection for the Monte-Carlo phase's garbage, then a loop
        # of short calls that a collection each would swamp.
        gc.collect()
        for _ in range(LAB_CKPT_REPEATS):
            _, seconds = rec.timed(
                "ckpt_save", save_checkpoint, store, hyper, reduced, self.path, settle=False
            )
            rec.add("save_s", seconds)
            with open(self.path, "rb") as handle:
                data = handle.read()
            require(saved is None or data == saved, "two saves of one store differ")
            saved = data
            (loaded, _), seconds = rec.timed(
                "ckpt_load", load_checkpoint, self.path, reduced, settle=False
            )
            rec.add("load_s", seconds)
            check_roundtrip(store, loaded, hyper.rounds)
        rec.add("ckpt_bytes", len(saved))

        verified = LAB_CERTIFY.run(rec, self.seed)
        if first_round:
            LAB_CERTIFY.check_nonvacuous(self.seed)
        return fingerprint(statistics_, after, final.tobytes(), saved, verified)


WORKLOADS = {"serve-long": Serve, "serve-churn": Serve, "lab": Lab}


def end_to_end(rec: Recorder, workload) -> dict[str, tuple[float, str]]:
    """End-to-end metrics from every sample of a run.

    Deletion latency is the median its name says. The other timings are
    means (a total over a total for rates): the 2-vCPU host they were
    tuned on switches between speeds up to 1.45x apart, for stretches of
    seconds to tens of seconds, and a median of a few samples lands in
    whichever speed held most of them, while a mean moves only with the
    share of time spent at each. Lab's checkpoint timings stay medians:
    its saves take milliseconds, and a file-system stall of a few
    milliseconds would move a mean.
    """
    s = rec.samples
    ckpt = workload.ckpt_average
    return {
        "train_iters_per_s": (sum(s["train_iters"]) / sum(s["train_s"]), "1/s"),
        "delete_s_p50": (statistics.median(s["delete_s"]), "s"),
        "recompute_iters_per_s": (sum(s["recomputed"]) / sum(s["delete_s"]), "1/s"),
        "ckpt_save_s": (ckpt(s["save_s"]), "s"),
        "ckpt_load_s": (ckpt(s["load_s"]), "s"),
        "ckpt_bytes": (statistics.median(s["ckpt_bytes"]), "bytes"),
        "mc_pipelines_per_s": (sum(s["mc_pipelines"]) / sum(s["mc_s"]), "1/s"),
        "certify_s": (statistics.fmean(s["certify_s"]), "s"),
    }
