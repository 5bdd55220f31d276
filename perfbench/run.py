"""Benchmark of fedunlab: serving deletions and the verification lab.

Run from the repository root; nothing needs installing:

    python3 perfbench/run.py --workload serve-long --seed 1 --seconds 20 --trace 0

Workloads: serve-long, serve-churn and lab (see workloads.py). A run
builds its inputs from --seed, then repeats whole rounds of the
workload for --seconds, ending within half a round of it (at least
MIN_ROUNDS rounds, so repeated rounds can be compared byte for byte).
Every round checks the program's outputs (checks.py). The last line of
standard output is one JSON object: correct, attempted, failed and
metrics.

--trace 0 reports the end-to-end metrics, measured with no tracing.
--trace 1 alternates untraced and traced rounds and reports per-layer
self times and counts of the traced rounds (spans.py), the host
calibration loop and the tracing overhead; the spans are written to
.perfbench_out/trace-<workload>.jsonl.gz (spans of the first traced
round).
"""

import os

# One thread for BLAS and OpenMP, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("serve-long", "serve-churn", "lab")
# setup_s is the median of this process's set-up and these fresh ones.
SETUP_CHILDREN = 2
# Rounds a run makes at least, however short --seconds is, so that
# repeated rounds of one seed can be compared byte for byte.
MIN_ROUNDS = 2


def calibrate() -> float:
    """A fixed pure-Python loop: it shows when the host, not the
    program, was slow."""
    start = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return perf_counter() - start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the set-up time and exit")
    return parser.parse_args(argv)


def fresh_setups(args) -> list[float]:
    """Set-up time of fresh processes: package import plus inputs."""
    samples = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def emit(correct, rec, metrics) -> None:
    body = {
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            name: {"value": int(value) if unit == "count" else value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(body))


def main(argv=None) -> int:
    args = parse_args(argv)
    source = os.path.join(ROOT, "src", "fedunlab")
    if not os.path.isdir(source):
        # never fall back to an installed copy: the checkout is what is measured
        sys.exit(f"no fedunlab sources at {source}: run from a checkout of the repository")
    os.makedirs(OUT, exist_ok=True)

    start = perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from checks import CheckFailed
    from fedunlab import FedUnlabError

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    with tracer.phase("setup") if tracer else nullcontext():
        workload = workloads.WORKLOADS[args.workload](args.workload, args.seed, OUT)
    setup_s = perf_counter() - start
    if args.setup_only:
        print(repr(setup_s))
        return 0
    if tracer:
        tracer.uninstall()
        generate_s = sum(
            s[2] - s[1] for s in tracer.spans if s[0] == "data.generate_synthetic"
        )

    rec = workloads.Recorder()
    correct = True
    fingerprints = set()
    rounds = 0

    def one_round(traced: bool) -> float:
        nonlocal correct, rounds
        rec.counters = {}
        if traced:
            tracer.install()
            rec.tracer = tracer
        before = dict(rec.phase_s)
        try:
            fingerprints.add(workload.round(rec, first_round=rounds == 0))
        except CheckFailed as exc:
            correct = False
            print(f"check failed: {exc}", file=sys.stderr)
        except FedUnlabError as exc:
            rec.failed += 1
            print(f"operation failed: {exc!r}", file=sys.stderr)
        finally:
            if traced:
                tracer.uninstall()
                rec.tracer = None
        rounds += 1
        return {phase: total - before.get(phase, 0.0) for phase, total in rec.phase_s.items()}

    begin = perf_counter()

    def more(least: int) -> bool:
        """Whether to start another round: one that would end further past
        --seconds than it starts before it is not started, so a run ends
        within half a round of --seconds."""
        elapsed = perf_counter() - begin
        return rounds < least or elapsed + elapsed / (2 * rounds) < args.seconds

    if not args.trace:
        while more(MIN_ROUNDS):
            one_round(False)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        calib, overhead, per_round = [], [], []
        kept = None  # end of the first traced round's spans, kept for the trace file
        while more(2):
            calib.append(calibrate())
            plain = one_round(False)
            calib.append(calibrate())
            first = len(tracer.spans)
            traced = one_round(True)
            overhead.append(sum(traced.values()) - sum(plain.values()))
            per_round.append(spans.layer_metrics(tracer.spans, first) | rec.counters)
            kept = len(tracer.spans) if kept is None else kept
            del tracer.spans[kept:]
    if len(fingerprints) > 1:
        correct = False
        print("repeated rounds of one seed gave different outputs", file=sys.stderr)
    print(f"{args.workload}: {rounds} rounds in {perf_counter() - begin:.1f} s; recomputed "
          f"iterations per request {rec.samples.get('recomputed', [])[:12]}", file=sys.stderr)

    if not args.trace:
        metrics = {"setup_s": (statistics.median([setup_s] + fresh_setups(args)), "s")}
        metrics.update(workloads.end_to_end(rec, workload))
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    else:
        layers = {name: statistics.fmean(r[name] for r in per_round) for name in per_round[0]}
        layers["data.generate_s"] = generate_s
        layers["host.calib_s"] = statistics.median(calib)
        layers["trace.overhead_s"] = statistics.median(overhead)
        metrics = {
            name: (value, "s" if name.endswith("_s") else "count")
            for name, value in sorted(layers.items())
        }
        tracer.write_jsonl(os.path.join(OUT, f"trace-{args.workload}.jsonl.gz"), start)
    emit(correct, rec, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
