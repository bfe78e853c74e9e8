import csv
import json
import math

import numpy as np
import pytest
from scipy import stats

from randcrf import (DagFamily, ExperimentConfig, Method, SpanningTreeFamily, SubsetFamily,
                     enumerate_outputs, family_label, generate_dataset, generate_ground_truth,
                     load_dataset, load_weights, parse_family, run_experiment, run_repetition,
                     save_dataset, save_weights, space, summarize)
from randcrf.harness import (METRIC_COLUMNS, METRICS_CSV_HEADER, MetricsRecord,
                             write_metrics_csv, write_summary_csv)
from randcrf import cli

from oracles import exhaustive_map_decode

SET36 = SubsetFamily(3, 6)


# ---------------------------------------------------------------------------
# synthetic data


def test_ground_truth_support_size():
    for family in (SubsetFamily(4, 15), SpanningTreeFamily(6), DagFamily(5, 2)):
        w = generate_ground_truth(family, 0)
        assert w.support_size == math.ceil(math.sqrt(family.feature_dim))
        assert w.values.shape == (family.feature_dim,)


def test_ground_truth_entry_variance():
    fam = SpanningTreeFamily(6)  # d = 15, 4 survivors per draw
    rng = np.random.default_rng(1)
    entries = []
    for _ in range(10_000):
        w = generate_ground_truth(fam, rng)
        entries.extend(w.values[w.values != 0])
    assert np.var(entries) == pytest.approx(100.0, abs=5.0)


def test_ground_truth_supports_differ_across_seeds():
    fam = SubsetFamily(4, 15)
    supports = {tuple(np.nonzero(generate_ground_truth(fam, s).values)[0]) for s in range(20)}
    assert len(supports) > 15


def test_generated_labels_match_exhaustive_decoder():
    fam = SET36
    w = generate_ground_truth(fam, 3)
    S = generate_dataset(fam, w, 12, 4)
    for i, y in enumerate(S.outputs):
        assert y == exhaustive_map_decode(fam, S.inputs[i], w.values)


def test_zero_ground_truth_gives_canonical_labels():
    fam = SET36
    S = generate_dataset(fam, np.zeros(fam.feature_dim), 5, 6)
    first = enumerate_outputs(fam)[0]
    assert all(y == first for y in S.outputs)


def test_input_bits_are_balanced():
    fam = SET36
    S = generate_dataset(fam, generate_ground_truth(fam, 7), 10_000, 8)
    assert S.inputs.mean() == pytest.approx(0.5, abs=0.02)


# ---------------------------------------------------------------------------
# experiment protocol


@pytest.fixture(scope="module")
def smoke_records():
    cfg = ExperimentConfig(family=SET36, m_train=20, m_test=20, repetitions=2,
                           iterations=4, master_seed=5)
    return cfg, run_experiment(cfg)


def test_smoke_run_produces_full_record_grid(smoke_records):
    cfg, records = smoke_records
    assert len(records) == cfg.repetitions * len(cfg.methods)
    for r in records:
        assert 0.0 <= r.test_crf_loss <= 1.0
        assert 0.0 <= r.test_hamming <= 1.0
        assert r.train_seconds >= 0.0
        assert r.family == "set:3,6"
    assert [(r.repetition, r.method) for r in records] \
        == sorted((r.repetition, r.method) for r in records)


def test_randomized_train_loss_below_exact_counterpart(smoke_records):
    _, records = smoke_records
    for r in records:
        if r.method in ("crf_rand", "svm_rand"):
            assert r.train_loss <= r.train_loss_exact + 1e-10
            assert r.train_loss_support == "final_sets"
            assert r.set_size_max <= math.ceil(math.sqrt(20)) + 1
        else:
            assert r.train_loss == pytest.approx(r.train_loss_exact)
            assert r.train_loss_support == "full"


def test_repetition_reruns_identically(smoke_records):
    cfg, records = smoke_records
    again = run_repetition(cfg, 1)
    first = [r for r in records if r.repetition == 1]
    for a, b in zip(first, again):
        assert a.train_loss == b.train_loss
        assert a.test_crf_loss == b.test_crf_loss
        assert a.test_hamming == b.test_hamming
        assert a.weight_support == b.weight_support


def test_train_and_test_draws_differ(smoke_records):
    cfg, _ = smoke_records
    w = generate_ground_truth(cfg.family, 0)
    from randcrf.harness import stream
    a = generate_dataset(cfg.family, w, 20, stream(5, 0, "train_x"))
    b = generate_dataset(cfg.family, w, 20, stream(5, 0, "test_x"))
    assert not np.array_equal(a.inputs, b.inputs)


# ---------------------------------------------------------------------------
# aggregation


def records_with(values, method="crf_all", metric="test_hamming"):
    rows = []
    for i, v in enumerate(values):
        fields = dict(run_id="r", repetition=i, method=method, family="set:3,6",
                      train_loss=0.1, train_loss_exact=0.1, test_crf_loss=0.2,
                      test_hamming=0.0, train_seconds=0.0, set_size_mean=1.0,
                      set_size_max=1, weight_support=3, weight_l1=1.5, beta=0.5,
                      train_loss_support="full")
        fields[metric] = v
        rows.append(MetricsRecord(**fields))
    return rows


def test_summary_identical_records_have_zero_width():
    rows = summarize(records_with([0.3, 0.3, 0.3]))
    row = next(r for r in rows if r.metric == "test_hamming")
    assert row.mean == pytest.approx(0.3)
    assert row.ci_high - row.ci_low == pytest.approx(0.0, abs=1e-12)


def test_summary_two_point_t_interval():
    rows = summarize(records_with([0.0, 1.0]))
    row = next(r for r in rows if r.metric == "test_hamming")
    half = stats.t.ppf(0.975, 1) * np.std([0.0, 1.0], ddof=1) / math.sqrt(2)
    assert row.mean == pytest.approx(0.5)
    assert row.ci_high == pytest.approx(0.5 + half)
    assert half == pytest.approx(6.35312, abs=1e-4)


def test_summary_metric_columns_match_record_schema(smoke_records):
    _, records = smoke_records
    rows = summarize(records)
    assert {r.metric for r in rows} == set(METRIC_COLUMNS)
    assert all(c in METRICS_CSV_HEADER for c in METRIC_COLUMNS)
    with pytest.raises(ValueError):
        summarize(records_with([0.4]))


# ---------------------------------------------------------------------------
# families and files


def test_family_labels_round_trip():
    for fam in (SubsetFamily(4, 15), SpanningTreeFamily(6), DagFamily(5, 2), SET36):
        assert parse_family(family_label(fam)) == fam
    assert parse_family("tree") == SpanningTreeFamily(6)
    assert parse_family("dag") == DagFamily(5, 2)
    assert parse_family("set") == SubsetFamily(4, 15)
    with pytest.raises(ValueError):
        parse_family("ring:4")


def test_dataset_round_trip(tmp_path):
    fam = SET36
    S = generate_dataset(fam, generate_ground_truth(fam, 1), 7, 2)
    path = tmp_path / "data.jsonl"
    save_dataset(path, S)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 7
    obj = json.loads(lines[0])
    assert set(obj) == {"x", "y"}
    assert len(obj["x"]) == fam.feature_dim and set(obj["x"]) <= {"0", "1"}
    assert obj["y"] == sorted(obj["y"])
    S2 = load_dataset(path, fam)
    assert np.array_equal(S.inputs, S2.inputs)
    assert all(a == b for a, b in zip(S.outputs, S2.outputs))


@pytest.mark.parametrize("bad,message", [
    ({"x": "2" * 15, "y": [0, 1, 2]}, "other than 0 and 1"),
    ({"x": "01" * 7, "y": [0, 1, 2]}, "15 bits"),
    ({"x": "0" * 16, "y": [0, 1, 2]}, "15 bits"),
    ({"x": [0] * 15, "y": [0, 1, 2]}, "15 bits"),
    ({"x": "0" * 15}, "'y' must be a list"),
    ({"x": "0" * 15, "y": "0,1,2"}, "'y' must be a list"),
    ({"x": "0" * 15, "y": [0, 1.5, 2]}, "'y' must be a list"),
    ({"x": "0" * 15, "y": [0, 1]}, "not a valid structure"),
    ({"x": "0" * 15, "y": [2, 1, 0]}, "not a valid structure"),
    ({"x": "0" * 15, "y": [0, 1, 6]}, "not a valid structure"),
    ([0, 1], "JSON object"),
])
def test_load_dataset_names_the_bad_line(tmp_path, bad, message):
    fam = SET36
    good = json.dumps({"x": "1" * fam.feature_dim, "y": [0, 2, 4]})
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join([good, "", json.dumps(bad), good]) + "\n")
    with pytest.raises(ValueError, match=f"line 3: .*{message}"):
        load_dataset(path, fam)


def test_load_dataset_rejects_out_of_family_structures(tmp_path):
    # a line of twenty 2s used to load into dag:5,1; an edge set with a cycle
    # and a non-JSON line are rejected too
    fam = DagFamily(5, 1)
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps({"x": "2" * fam.feature_dim, "y": []}) + "\n")
    with pytest.raises(ValueError, match="line 1: .*0 and 1"):
        load_dataset(path, fam)
    cycle = [0, 4]  # edges 0->1 and 1->0
    path.write_text(json.dumps({"x": "0" * fam.feature_dim, "y": cycle}) + "\n")
    with pytest.raises(ValueError, match="line 1: .*not a valid structure"):
        load_dataset(path, fam)
    path.write_text("{x: 1}\n")
    with pytest.raises(ValueError, match="line 1"):
        load_dataset(path, fam)
    path.write_text("\n")
    with pytest.raises(ValueError, match="no samples"):
        load_dataset(path, fam)


def test_weights_round_trip(tmp_path):
    w = generate_ground_truth(SET36, 9)
    path = tmp_path / "w.json"
    save_weights(path, w)
    assert np.array_equal(load_weights(path).values, w.values)
    assert isinstance(json.loads(path.read_text()), list)


def test_experiment_config_round_trip():
    cfg = ExperimentConfig(family=SET36, repetitions=3, methods=(Method.CRF_RAND,),
                           master_seed=11)
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_metrics_csv_write(tmp_path, smoke_records):
    _, records = smoke_records
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, records)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == METRICS_CSV_HEADER
    assert len(rows) == len(records) + 1


# ---------------------------------------------------------------------------
# command line


def test_cli_gen_train_eval_round_trip(tmp_path):
    data = tmp_path / "d.jsonl"
    weights = tmp_path / "w.json"
    trace = tmp_path / "trace.csv"
    metrics = tmp_path / "m.csv"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"family": "set:3,6", "m_train": 15, "iterations": 4,
                                  "repetitions": 1, "master_seed": 3}))
    assert cli.main(["gen-data", "--family", "set:3,6", "--seed", "1", "--m", "15",
                     "--out", str(data)]) == 0
    assert cli.main(["train", "--method", "crf_rand", "--config", str(config),
                     "--data", str(data), "--out-weights", str(weights),
                     "--trace", str(trace)]) == 0
    assert cli.main(["eval", "--weights", str(weights), "--data", str(data),
                     "--family", "set:3,6", "--metrics", str(metrics)]) == 0
    with open(trace) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run_id", "method", "iter", "objective", "grad_norm", "seconds"]
    assert len(rows) == 5
    with open(metrics) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run_id", "method", "kind", "value", "stderr"]
    kinds = {r[2] for r in rows[1:]}
    assert kinds == {"exact_crf", "hamming"}
    w = load_weights(weights)
    assert w.values.shape == (SET36.feature_dim,)


def test_cli_bounds_table(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert cli.main(["bounds", "--grid", "d=105;s=11;m=25,100;n=10;r=1365;delta=0.05",
                     "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "generalization" in printed
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3


def strip_timing(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    drop = [i for i, name in enumerate(rows[0]) if name == "train_seconds"]
    return "\n".join(",".join(c for i, c in enumerate(row) if i not in drop) for row in rows)


def test_cli_reproduce_is_deterministic(tmp_path):
    args = ["reproduce", "--families", "set:3,6", "--reps", "2", "--m-train", "15",
            "--m-test", "15", "--iterations", "3", "--seed", "7"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    sa, sb = tmp_path / "sa.csv", tmp_path / "sb.csv"
    assert cli.main(args + ["--out", str(a), "--summary", str(sa)]) == 0
    assert cli.main(args + ["--out", str(b), "--summary", str(sb)]) == 0
    assert strip_timing(a) == strip_timing(b)
    assert len(strip_timing(a).split("\n")) == 2 * 4 + 1


def test_cli_reproduce_with_worker_processes(tmp_path):
    base = ["reproduce", "--families", "set:3,6", "--reps", "2", "--m-train", "12",
            "--m-test", "12", "--iterations", "2", "--seed", "9", "--methods", "crf_rand"]
    solo, pooled = tmp_path / "solo.csv", tmp_path / "pooled.csv"
    assert cli.main(base + ["--out", str(solo)]) == 0
    assert cli.main(base + ["--out", str(pooled), "--threads", "2"]) == 0
    assert strip_timing(solo) == strip_timing(pooled)


def test_thread_count_env_var(monkeypatch):
    monkeypatch.setenv("RANDCRF_THREADS", "2")
    cfg = ExperimentConfig(family=SET36, m_train=10, m_test=10, repetitions=2,
                           iterations=2, methods=(Method.SVM_RAND,), master_seed=13)
    pooled = run_experiment(cfg)
    monkeypatch.delenv("RANDCRF_THREADS")
    solo = run_experiment(cfg)
    assert [(r.repetition, r.train_loss, r.test_hamming) for r in pooled] \
        == [(r.repetition, r.train_loss, r.test_hamming) for r in solo]
