"""Experiment configs, runner outputs, reports, and the CLI."""

import csv
import hashlib
import io
import json
import math
import os
import signal
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedunlab import stability
from fedunlab.bench import (
    ExperimentConfig,
    MetricsRow,
    convergence_summary,
    draw_random_sample_requests,
    read_metrics,
    run_experiment,
    unlearning_efficiency_report,
)
from fedunlab.cli import main as cli_main
from fedunlab.data import (
    COMPACT,
    UnlearnRequest,
    export_dataset,
    generate_synthetic,
    import_dataset,
)
from fedunlab.engine import ReplayPlan
from fedunlab.errors import InvalidArgumentError
from fedunlab.losses import make_loss
from fedunlab.store import load_checkpoint
from fedunlab.unlearn import NOOP, PARTIAL_RETRAIN, UnlearnOutcome, unlearn_request


def _config_dict(output_dir, **overrides):
    raw = {
        "dataset": {"num_clients": 3, "samples_per_client": 4, "dim": 2,
                    "classes": 2, "beta": 0.5, "seed": 1},
        "loss": "quadratic",
        "hyper": {"total_steps": 8, "local_steps": 2, "rho_sample": 0.5,
                  "rho_client": 0.5, "lr": 0.05},
        "repeats": 1,
        "seed_base": 3,
        "output_dir": output_dir,
    }
    raw.update(overrides)
    return raw


# ----------------------------------------------------------------------
# config parsing


def test_config_from_dict_defaults(tmp_path):
    config = ExperimentConfig.from_dict(_config_dict(str(tmp_path)))
    assert config.total_steps == 8
    assert config.lr == 0.05
    assert config.requests == []
    assert config.storage_mode == "full_history"


def test_config_missing_field_names_path(tmp_path):
    raw = _config_dict(str(tmp_path))
    del raw["hyper"]["total_steps"]
    with pytest.raises(InvalidArgumentError, match="hyper.total_steps"):
        ExperimentConfig.from_dict(raw)


def test_config_auto_lr(tmp_path):
    raw = _config_dict(str(tmp_path))
    raw["hyper"]["lr"] = "auto"
    config = ExperimentConfig.from_dict(raw)
    assert config.lr is None


def test_config_parses_request_list(tmp_path):
    raw = _config_dict(str(tmp_path))
    raw["requests"] = [
        {"kind": "sample", "client": 1, "uid": 5, "issue_step": 8},
        {"kind": "client", "client": 2},
    ]
    config = ExperimentConfig.from_dict(raw)
    assert config.requests[0] == UnlearnRequest(
        kind="sample", target_client=1, target_uid=5, issue_step=8
    )
    assert config.requests[1].target_uid is None
    assert config.requests[1].issue_step == 8  # defaults to total_steps


def test_config_parses_random_requests(tmp_path):
    raw = _config_dict(str(tmp_path))
    raw["requests"] = {"random_samples": 4, "seed": 11}
    config = ExperimentConfig.from_dict(raw)
    assert config.random_sample_requests == 4
    assert config.request_seed == 11


def test_config_from_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config_dict(str(tmp_path))))
    config = ExperimentConfig.from_file(str(path))
    assert config.dataset_clients == 3


# ----------------------------------------------------------------------
# runner


def test_run_experiment_writes_files(tmp_path):
    raw = _config_dict(str(tmp_path / "out"))
    raw["requests"] = {"random_samples": 2, "seed": 4}
    raw["repeats"] = 2
    config = ExperimentConfig.from_dict(raw)
    results = run_experiment(config)
    assert len(results) == 2
    for result in results:
        assert len(result.metrics) == 4  # rounds
        assert len(result.outcomes) == 2
        assert sorted(os.listdir(result.run_dir)) == [
            "metrics.csv", "outcomes.csv", "timings.csv",
        ]


def test_run_experiment_metrics_deterministic(tmp_path):
    """metrics.csv and outcomes.csv are byte-identical across re-runs;
    wall-clock numbers live in timings.csv and the outcomes wall column."""
    contents = []
    for attempt in range(2):
        out = str(tmp_path / f"attempt_{attempt}")
        raw = _config_dict(out)
        raw["requests"] = {"random_samples": 2, "seed": 4}
        config = ExperimentConfig.from_dict(raw)
        results = run_experiment(config)
        with open(os.path.join(results[0].run_dir, "metrics.csv"), "rb") as f:
            metrics = f.read()
        with open(os.path.join(results[0].run_dir, "outcomes.csv")) as f:
            lines = f.read().splitlines()
        stripped = [",".join(line.split(",")[:-1]) for line in lines]
        contents.append((metrics, stripped))
    assert contents[0][0] == contents[1][0]
    assert contents[0][1] == contents[1][1]


def test_run_experiment_auto_lr_satisfies_condition(tmp_path):
    raw = _config_dict(str(tmp_path / "out"))
    raw["hyper"]["lr"] = "auto"
    config = ExperimentConfig.from_dict(raw)
    results = run_experiment(config, write_files=False)
    assert results[0].hyper.lr > 0
    for row in results[0].metrics:
        assert row.lr_condition_margin < 0


def test_outcomes_csv_row_fields(tmp_path):
    """An outcomes.csv row names the request's kind, client and uid, the
    action taken and the iterations it re-computed."""
    raw = _config_dict(str(tmp_path / "out"))
    raw["requests"] = [{"kind": "sample", "client": 0, "uid": 1}]
    result = run_experiment(ExperimentConfig.from_dict(raw))[0]
    with open(os.path.join(result.run_dir, "outcomes.csv"), newline="") as handle:
        (row,) = csv.DictReader(handle)
    assert row["kind"] == "sample"
    assert row["client"] == "0"
    assert row["uid"] == "1"
    assert row["action"] == PARTIAL_RETRAIN
    assert int(row["retrained_iterations"]) == result.outcomes[0].retrained_iterations > 0


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# SHA-256 of (metrics.csv, outcomes.csv without its wall_time_s column)
# for each run of each shipped config. Training and deletion are
# deterministic, so any change to these bytes is a change in behaviour.
SHIPPED_PINS = {
    "quickstart": [
        ("b319610cc62155c94da0e32f46ce3ecbbe242f8bd3c12ce0e391dfe14bf6891f",
         "59f78eef81b503dc4db7dcac9160be57e327435512056b2d9cf56367dfc2824d"),
        ("0bad3d4d76a3a6ede1935ecf64ec4ba121cbe23bb73832de32d708a3514a87b3",
         "cb55d34a56fab2a99b048e7815142bed6ca112966519fb5e49ba06040fbb0864"),
    ],
    "convergence_study": [
        ("8e1a71d312da815c997ae7ed8206b6942c46c99c6b24d273b214fb9d16208cad",
         "5bca2bc86d01182cc2ad712964bef7c9e3d60d5efbea64543c3a7aec72962e2f"),
        ("e9234c31b1f38053cf5edca0e8d6806f72e037b8dc598bf61c4400e7d6d65bac",
         "97ed06008b60be98756a6f9f040d92789957b8a79eda48147ec28965f8b333ea"),
        ("c3a480188faed051bbf63fdde2a7c7b10fa95bc776753ea50db777f9eb9247df",
         "73099561a611faf7be5c78efdaaec226f7a00662b41608d7549df1ef04a6e13a"),
    ],
    "compact_storage": [
        ("6eda8a193a158499f2d747032ea89845db093f6bcea30568128bbccbbafd2e4b",
         "0e9e4a4184b02195801a6266b6c15b7895ce45227da236e70ec84c6ce0ff6a57"),
    ],
}


def _sha256_without_column(path, column):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    drop = rows[0].index(column)
    buffer = io.StringIO()
    csv.writer(buffer).writerows(row[:drop] + row[drop + 1:] for row in rows)
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SHIPPED_PINS))
def test_shipped_config_outputs_pinned(tmp_path, name):
    config = ExperimentConfig.from_file(str(CONFIGS / f"{name}.json"))
    config.output_dir = str(tmp_path)
    got = []
    for result in run_experiment(config):
        metrics = Path(result.run_dir, "metrics.csv").read_bytes()
        got.append((
            hashlib.sha256(metrics).hexdigest(),
            _sha256_without_column(Path(result.run_dir, "outcomes.csv"), "wall_time_s"),
        ))
    assert got == SHIPPED_PINS[name]


def test_read_metrics_round_trips_run_metrics(tmp_path):
    """The rows report parses from metrics.csv are the rows the run
    recorded, bit for bit."""
    config = ExperimentConfig.from_file(str(CONFIGS / "quickstart.json"))
    config.output_dir = str(tmp_path)
    for result in run_experiment(config):
        got = read_metrics(os.path.join(result.run_dir, "metrics.csv"))
        assert len(got) == len(result.metrics) > 0
        for parsed, recorded in zip(got, result.metrics):
            assert replace(parsed, diversity=0.0) == replace(recorded, diversity=0.0)
            assert parsed.diversity == recorded.diversity or (
                math.isnan(parsed.diversity) and math.isnan(recorded.diversity)
            )


def test_draw_random_sample_requests_distinct():
    dataset = generate_synthetic(
        num_clients=3, samples_per_client=4, dim=1, classes=2, beta=0.5, seed=2
    )
    requests = draw_random_sample_requests(dataset, 5, seed=1, issue_step=10)
    uids = [r.target_uid for r in requests]
    assert len(set(uids)) == 5
    for request in requests:
        assert dataset.client(request.target_client).has_uid(request.target_uid)


@contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the body after seconds of wall time."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_draw_random_sample_requests_rejects_more_than_the_points():
    dataset = generate_synthetic(
        num_clients=2, samples_per_client=2, dim=1, classes=2, beta=0.5, seed=2
    )
    with _time_limit(10):
        assert len(draw_random_sample_requests(dataset, 4, seed=1, issue_step=2)) == 4
        with pytest.raises(InvalidArgumentError, match="5 distinct"):
            draw_random_sample_requests(dataset, 5, seed=1, issue_step=2)


# ----------------------------------------------------------------------
# reports


def _metric(run, round_index, grad, avg):
    return MetricsRow(
        run=run, round=round_index, iteration=2 * round_index,
        grad_norm_sq=grad, avg_grad_norm_sq=avg, loss=1.0, diversity=1.5,
        lr_condition_margin=-0.1, rho_sample_realized=0.5,
        rho_client_realized=0.5, curvature_ratio=2.0,
    )


def test_convergence_summary():
    rows = [_metric(0, r, grad=1.0 / r, avg=sum(1.0 / i for i in range(1, r + 1)) / r)
            for r in range(1, 9)]
    summary = convergence_summary(rows)
    assert summary["runs"] == 1
    assert summary["rounds"] == 8
    assert summary["mean_plateau"] == pytest.approx(
        np.mean([1.0 / 7, 1.0 / 8])
    )
    with pytest.raises(InvalidArgumentError):
        convergence_summary([])


def _outcome(action, retrained, rho=0.5):
    return UnlearnOutcome(
        request=UnlearnRequest(kind="sample", target_client=0, target_uid=1,
                               issue_step=10),
        action=action, from_iteration=None if retrained == 0 else 11 - retrained,
        retrained_iterations=retrained, wall_time_s=0.01, final_model=None,
        rho_sample_realized=rho, rho_client_realized=rho, probes=1,
    )


def test_unlearning_efficiency_report_oracle():
    outcomes = [_outcome(NOOP, 0), _outcome(PARTIAL_RETRAIN, 4),
                _outcome(PARTIAL_RETRAIN, 6), _outcome("stale", 0)]
    report = unlearning_efficiency_report(outcomes, total_steps=10)
    assert report["requests"] == 4
    assert report["serviced"] == 3
    assert report["stale"] == 1
    assert report["noop"] == 1
    assert report["recompute_rate"] == pytest.approx(2 / 3)
    assert report["mean_retrained_iterations"] == pytest.approx(10 / 3)
    assert report["speedup_vs_full_retrain"] == pytest.approx(30 / 10)


def test_unlearning_efficiency_report_no_recompute():
    report = unlearning_efficiency_report([_outcome(NOOP, 0)], total_steps=10)
    assert report["recompute_rate"] == 0.0
    assert math.isinf(report["speedup_vs_full_retrain"])


# ----------------------------------------------------------------------
# CLI


def test_cli_pipeline(tmp_path, capsys):
    data = str(tmp_path / "data.txt")
    ckpt = str(tmp_path / "ckpt.txt")
    ckpt2 = str(tmp_path / "ckpt2.txt")
    data2 = str(tmp_path / "data2.txt")

    assert cli_main([
        "gen-data", "--num-clients", "3", "--samples-per-client", "4",
        "--dim", "2", "--seed", "5", "--out", data,
    ]) == 0
    assert cli_main([
        "train", "--data", data, "--total-steps", "8", "--local-steps", "2",
        "--rho-sample", "0.5", "--rho-client", "0.5", "--lr", "0.05",
        "--seed", "3", "--out", ckpt,
    ]) == 0
    assert cli_main([
        "unlearn", "--data", data, "--checkpoint", ckpt, "--kind", "sample",
        "--client", "0", "--uid", "1", "--out", ckpt2, "--data-out", data2,
    ]) == 0
    out = capsys.readouterr().out
    assert "sample deletion of client 0 uid 1" in out
    assert os.path.exists(ckpt2) and os.path.exists(data2)

    requests = tmp_path / "requests.txt"
    requests.write_text("# comment\nclient,2,-,8\n")
    assert cli_main([
        "stream", "--data", data2, "--checkpoint", ckpt2,
        "--requests", str(requests),
    ]) == 0


def test_cli_unlearn_rejected(tmp_path, capsys):
    """A deletion the reduced data cannot retrain exits 1 and writes
    nothing: every client holds exactly batch_size = 4 points."""
    data = str(tmp_path / "data.txt")
    ckpt = str(tmp_path / "ckpt.txt")
    ckpt2 = str(tmp_path / "ckpt2.txt")
    assert cli_main([
        "gen-data", "--num-clients", "3", "--samples-per-client", "4",
        "--dim", "2", "--seed", "5", "--out", data,
    ]) == 0
    assert cli_main([
        "train", "--data", data, "--total-steps", "2", "--local-steps", "1",
        "--rho-sample", "0.6667", "--rho-client", "0.6667", "--lr", "0.05",
        "--out", ckpt,
    ]) == 0
    assert "b=4" in capsys.readouterr().out
    assert cli_main([
        "unlearn", "--data", data, "--checkpoint", ckpt, "--kind", "sample",
        "--client", "0", "--uid", "1", "--out", ckpt2,
    ]) == 1
    assert "rejected" in capsys.readouterr().out
    assert not os.path.exists(ckpt2)
    # one point per client, b = 1: deleting a point would empty its client
    assert cli_main([
        "gen-data", "--num-clients", "2", "--samples-per-client", "1",
        "--dim", "2", "--seed", "5", "--out", data,
    ]) == 0
    assert cli_main([
        "train", "--data", data, "--total-steps", "2", "--local-steps", "1",
        "--rho-sample", "1.0", "--rho-client", "1.0", "--lr", "0.05",
        "--out", ckpt,
    ]) == 0
    assert "b=1" in capsys.readouterr().out
    assert cli_main([
        "unlearn", "--data", data, "--checkpoint", ckpt, "--kind", "sample",
        "--client", "0", "--uid", "0", "--out", ckpt2,
    ]) == 1
    assert "rejected" in capsys.readouterr().out
    assert not os.path.exists(ckpt2)


def test_cli_unlearn_uses_the_checkpoint_loss(tmp_path, capsys):
    """unlearn re-computes under the loss the checkpoint was trained
    with: its result equals an in-process logistic deletion."""
    data = str(tmp_path / "data.txt")
    ckpt = str(tmp_path / "ckpt.txt")
    ckpt2 = str(tmp_path / "ckpt2.txt")
    assert cli_main([
        "gen-data", "--num-clients", "3", "--samples-per-client", "4",
        "--dim", "2", "--seed", "5", "--out", data,
    ]) == 0
    assert cli_main([
        "train", "--data", data, "--loss", "logistic", "--total-steps", "8",
        "--local-steps", "2", "--rho-sample", "0.5", "--rho-client", "0.5",
        "--lr", "0.05", "--seed", "3", "--out", ckpt,
    ]) == 0
    with open(data, encoding="utf-8") as handle:
        dataset = import_dataset(handle.read())
    store, hyper = load_checkpoint(ckpt, dataset)
    assert store.loss_name == "logistic"
    client_id, uid = next(
        (client.client_id, uid) for client in dataset.clients for uid in client.uids
        if store.earliest_sample_use(uid) is not None
    )
    assert cli_main([
        "unlearn", "--data", data, "--checkpoint", ckpt, "--kind", "sample",
        "--client", str(client_id), "--uid", str(uid), "--out", ckpt2,
    ]) == 0
    assert "partial_retrain" in capsys.readouterr().out
    request = UnlearnRequest("sample", client_id, uid, hyper.total_steps)
    _, reduced = unlearn_request(request, store, dataset, hyper, make_loss("logistic", 2))
    served, _ = load_checkpoint(ckpt2, reduced)
    assert served.state_equal(store)


def test_cli_unlearn_replaces_its_inputs_in_place(tmp_path, capsys):
    """--out and --data-out may name the files unlearn read: each is
    replaced whole, and no temporary file is left behind."""
    data = str(tmp_path / "data.txt")
    ckpt = str(tmp_path / "ckpt.bin")
    assert cli_main([
        "gen-data", "--num-clients", "3", "--samples-per-client", "4",
        "--dim", "2", "--seed", "5", "--out", data,
    ]) == 0
    assert cli_main([
        "train", "--data", data, "--total-steps", "8", "--local-steps", "2",
        "--rho-sample", "0.5", "--rho-client", "0.5", "--lr", "0.05", "--out", ckpt,
    ]) == 0
    with open(data, encoding="utf-8") as handle:
        dataset = import_dataset(handle.read())
    uid = dataset.client(1).uids[0]
    assert cli_main([
        "unlearn", "--data", data, "--checkpoint", ckpt, "--kind", "sample",
        "--client", "1", "--uid", str(uid), "--out", ckpt, "--data-out", data,
    ]) == 0
    assert sorted(os.listdir(tmp_path)) == ["ckpt.bin", "data.txt"]
    with open(data, encoding="utf-8") as handle:
        reduced = import_dataset(handle.read())
    assert not reduced.client(1).has_uid(uid)
    load_checkpoint(ckpt, reduced)


def test_cli_stream_data_out_resumes(tmp_path, capsys):
    """stream --out stamps the checkpoint with the reduced dataset, so
    --data-out must leave that dataset for a later stream to load."""
    data = str(tmp_path / "d.txt")
    ckpt = str(tmp_path / "c.bin")
    ckpt2 = str(tmp_path / "c2.bin")
    data2 = str(tmp_path / "d2.txt")
    assert cli_main([
        "gen-data", "--num-clients", "3", "--samples-per-client", "6",
        "--dim", "2", "--seed", "5", "--out", data,
    ]) == 0
    assert cli_main([
        "train", "--data", data, "--total-steps", "12", "--local-steps", "2",
        "--rho-sample", "0.5", "--rho-client", "0.5", "--lr", "0.05", "--out", ckpt,
    ]) == 0
    requests = tmp_path / "requests.txt"
    requests.write_text("sample,1,7,12\n")
    assert cli_main([
        "stream", "--data", data, "--checkpoint", ckpt, "--requests", str(requests),
        "--out", ckpt2, "--data-out", data2,
    ]) == 0
    assert f"reduced dataset at {data2}" in capsys.readouterr().out
    with open(data2, encoding="utf-8") as handle:
        reduced = import_dataset(handle.read())
    assert not reduced.client(1).has_uid(7)
    assert cli_main([
        "stream", "--data", data2, "--checkpoint", ckpt2, "--requests", str(requests),
    ]) == 0


def test_cli_verify(capsys):
    assert cli_main(["verify", "--kind", "sample"]) == 0
    assert cli_main(["verify", "--kind", "client"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all("verdict=pass" in line for line in lines)
    assert [line.split()[0] for line in lines] == [
        "sample-full_history", "sample-compact", "client-full_history", "client-compact",
    ]


def test_cli_verify_fails_when_only_compact_is_wrong(monkeypatch, capsys):
    """verify certifies each store mode on its own: a rule that is wrong
    only for a compact store fails that line and the exit code."""
    shipped = stability.couple

    def keep_unused_on_compact(request, mode, first_use, multisets, records, local_steps):
        # Conditions on non-involvement: keeps the history when the
        # point was never used.
        if mode == COMPACT and request.kind == "sample" and first_use is None:
            return None, ReplayPlan()
        return shipped(request, mode, first_use, multisets, records, local_steps)

    monkeypatch.setattr(stability, "couple", keep_unused_on_compact)
    assert cli_main(["verify", "--kind", "sample"]) == 1
    full, compact = capsys.readouterr().out.splitlines()
    assert full.startswith("sample-full_history ") and "verdict=pass" in full
    assert compact.startswith("sample-compact ") and "verdict=fail" in compact


def test_cli_bench_and_report(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_config_dict(
        str(tmp_path / "out"),
        requests={"random_samples": 1, "seed": 2},
    )))
    assert cli_main(["bench", "--config", str(config_path)]) == 0
    metrics = tmp_path / "out" / "run_0" / "metrics.csv"
    assert metrics.exists()
    capsys.readouterr()
    assert cli_main(["report", "--metrics", str(metrics)]) == 0
    assert "mean_plateau" in capsys.readouterr().out


def test_cli_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    code = cli_main([
        "train", "--data", missing, "--total-steps", "4", "--local-steps", "2",
        "--rho-sample", "0.5", "--rho-client", "0.5", "--lr", "0.1",
        "--out", str(tmp_path / "x.txt"),
    ])
    assert code != 0


def test_cli_stream_malformed_request_exits_2(tmp_path, capsys):
    data = str(tmp_path / "data.txt")
    ckpt = str(tmp_path / "ckpt.bin")
    assert cli_main([
        "gen-data", "--num-clients", "3", "--samples-per-client", "4",
        "--dim", "2", "--seed", "5", "--out", data,
    ]) == 0
    assert cli_main([
        "train", "--data", data, "--total-steps", "8", "--local-steps", "2",
        "--rho-sample", "0.5", "--rho-client", "0.5", "--lr", "0.05", "--out", ckpt,
    ]) == 0
    requests = tmp_path / "requests.txt"
    requests.write_text("sample,x,1,4\n")
    assert cli_main([
        "stream", "--data", data, "--checkpoint", ckpt, "--requests", str(requests),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "sample,x,1,4" in err


def _first_point_line(text):
    return next(line for line in text.splitlines() if line.startswith("point "))


@pytest.mark.parametrize("corrupt", [
    lambda text: text.replace(_first_point_line(text), "point 1 oops", 1),
    lambda text: text.replace(_first_point_line(text), "point 1", 1),
    lambda text: text.replace(" seed=5", " seed5", 1),
    lambda text: text.replace(" dim=2", " width=2", 1),
], ids=["bad-label", "short-point", "meta-without-equals", "meta-without-dim"])
def test_cli_train_malformed_dataset_exits_2(tmp_path, capsys, corrupt):
    dataset = generate_synthetic(
        num_clients=2, samples_per_client=3, dim=2, classes=2, beta=0.5, seed=5
    )
    text = export_dataset(dataset)
    broken = corrupt(text)
    assert broken != text
    data = tmp_path / "data.txt"
    data.write_text(broken)
    assert cli_main([
        "train", "--data", str(data), "--total-steps", "4", "--local-steps", "2",
        "--rho-sample", "0.5", "--rho-client", "0.5", "--lr", "0.1",
        "--out", str(tmp_path / "ckpt.bin"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed")


def test_cli_bench_invalid_json_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"dataset": {"num_clients": 3,')
    assert cli_main(["bench", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(config) in err


def _set(raw, path, value):
    *sections, key = path.split(".")
    for section in sections:
        raw = raw[section]
    raw[key] = value


def _bench_config_stderr(tmp_path, monkeypatch, capsys, path, value):
    """Run bench on the test config with the value at path replaced;
    assert it exits 2 and writes nothing, and return its stderr."""
    monkeypatch.chdir(tmp_path)
    raw = _config_dict("out")
    _set(raw, path, value)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert cli_main(["bench", "--config", str(config)]) == 2
    assert not (tmp_path / "out").exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("path, value, named", [
    ("dataset.num_clients", "x", "dataset.num_clients"),
    ("requests", [3], "requests[0]"),
    ("hyper.lr", "fast", "hyper.lr"),
    ("dataset.beta", None, "dataset.beta"),
    ("requests", [{"kind": "sample", "client": 0, "uid": "a"}], "requests[0].uid"),
    ("requests", {"random_samples": "x"}, "requests.random_samples"),
    ("hyper.total_steps", 4.5, "hyper.total_steps"),
    ("dataset.dim", 2.7, "dataset.dim"),
    ("hyper.lr", True, "hyper.lr"),
    ("repeats", "2", "repeats"),
    ("output_dir", 7, "output_dir"),
    ("repeats", 0, "repeats"),
    ("requests", {"random_samples": -1}, "requests.random_samples"),
])
def test_cli_bench_malformed_config_exits_2(tmp_path, monkeypatch, capsys, path, value, named):
    err = _bench_config_stderr(tmp_path, monkeypatch, capsys, path, value)
    assert err.startswith(f"error: config field {named} ")


@pytest.mark.parametrize("path, value, named", [
    ("repeat", 3, "repeat"),
    ("dataset.dims", 3, "dataset.dims"),
    ("hyper.learning_rate", 0.1, "hyper.learning_rate"),
    ("requests", {"random_sample": 3}, "requests.random_sample"),
    ("requests", [{"kind": "client", "client": 1, "issue": 8}], "requests[0].issue"),
])
def test_cli_bench_unknown_config_key_exits_2(tmp_path, monkeypatch, capsys, path, value, named):
    """A misspelt key is an error, not a silent default: "repeat": 3
    would otherwise run one repeat."""
    err = _bench_config_stderr(tmp_path, monkeypatch, capsys, path, value)
    assert err == f"error: config field {named} is not a known key\n"


@pytest.mark.parametrize("corrupt", [
    lambda rows: [row[:6] + row[7:] for row in rows],
    lambda rows: [rows[0], ["0", "1", "x"] + rows[1][3:]] + rows[2:],
], ids=["missing-column", "non-integer-iteration"])
def test_cli_report_malformed_metrics_exits_2(tmp_path, capsys, corrupt):
    (result,) = run_experiment(ExperimentConfig.from_dict(_config_dict(str(tmp_path))))
    metrics = Path(result.run_dir, "metrics.csv")
    with open(metrics, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    with open(metrics, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(corrupt(rows))
    assert cli_main(["report", "--metrics", str(metrics)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: metrics file {metrics} ")
