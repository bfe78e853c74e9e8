import csv
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from scipy import stats

from randcrf import (DagFamily, ExperimentConfig, Method, SpanningTreeFamily, SubsetFamily,
                     TrainConfig, family_label, generate_dataset, generate_ground_truth,
                     load_dataset, load_weights, parse_family, run_experiment, run_repetition,
                     save_dataset, save_weights, space, summarize)
from randcrf.harness import METRIC_COLUMNS, METRICS_CSV_HEADER, MetricsRecord, write_csv
from randcrf import cli

from oracles import exhaustive_map_decode

SET36 = SubsetFamily(3, 6)


# ---------------------------------------------------------------------------
# synthetic data


def test_ground_truth_support_size():
    for family in (SubsetFamily(4, 15), SpanningTreeFamily(6), DagFamily(5, 2)):
        w = generate_ground_truth(family, 0)
        assert np.count_nonzero(w) == math.ceil(math.sqrt(family.feature_dim))
        assert w.shape == (family.feature_dim,) and w.dtype == np.float64


def test_ground_truth_entry_variance():
    fam = SpanningTreeFamily(6)  # d = 15, 4 survivors per draw
    rng = np.random.default_rng(1)
    entries = []
    for _ in range(10_000):
        w = generate_ground_truth(fam, rng)
        entries.extend(w[w != 0])
    assert np.var(entries) == pytest.approx(100.0, abs=5.0)


def test_ground_truth_supports_differ_across_seeds():
    fam = SubsetFamily(4, 15)
    supports = {tuple(np.nonzero(generate_ground_truth(fam, s))[0]) for s in range(20)}
    assert len(supports) > 15


def test_generated_labels_match_exhaustive_decoder():
    fam = SET36
    w = generate_ground_truth(fam, 3)
    S = generate_dataset(fam, w, 12, 4)
    for i, y in enumerate(S.outputs):
        assert y == exhaustive_map_decode(fam, S.inputs[i], w)


def test_zero_ground_truth_gives_canonical_labels():
    fam = SET36
    S = generate_dataset(fam, np.zeros(fam.feature_dim), 5, 6)
    first = space(fam).outputs[0]
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


def test_repetition_looks_up_each_dataset_once(monkeypatch):
    from randcrf.spaces import EnumeratedSpace
    calls = []
    indices = EnumeratedSpace.indices

    def counted(self, ys):
        calls.append(len(ys))
        return indices(self, ys)

    monkeypatch.setattr(EnumeratedSpace, "indices", counted)
    cfg = ExperimentConfig(family=SET36, m_train=12, m_test=9, repetitions=1, iterations=2)
    records = run_repetition(cfg, 0)
    assert [r.method for r in records] == [m.value for m in Method]
    assert calls == [12, 9]  # the training set, then the test set


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
    for label in ("set:a", "dag:5,", "tree:6.5"):
        with pytest.raises(ValueError, match=f"^unknown family '{label}'$"):
            parse_family(label)


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
    assert np.array_equal(load_weights(path), w)
    assert isinstance(json.loads(path.read_text()), list)


@pytest.mark.parametrize("text", [
    "[NaN, 1.0]", "[1.0, Infinity]", "[1, " + "9" * 400 + "]", "[[0.5, 1.0]]", "[]",
    '{"w": [1.0]}', '[1.0, "2"]', "[true, 0.5]",
], ids=["nan", "inf", "huge-int", "nested", "empty", "object", "string", "bool"])
def test_load_weights_rejects_malformed_files(tmp_path, text):
    path = tmp_path / "w.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="w.json: weights must be a flat, non-empty JSON list "
                                         "of finite numbers"):
        load_weights(path)
    path.write_text(text[:-1])  # cut short: not JSON at all
    with pytest.raises(ValueError, match="w.json: "):
        load_weights(path)


def test_cli_eval_rejects_weights_of_the_wrong_length(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    assert cli.main(["gen-data", "--family", "set:3,6", "--seed", "1", "--m", "5",
                     "--out", str(data)]) == 0
    capsys.readouterr()
    for text, message in (("[0.5, 1.0]", "2 weights, but set:3,6 has 15 features"),
                          ("[NaN" + ", 0.0" * 14 + "]", "weights must be a flat")):
        weights = tmp_path / "w.json"
        weights.write_text(text)
        assert cli.main(["eval", "--weights", str(weights), "--data", str(data),
                         "--family", "set:3,6", "--metrics", str(tmp_path / "m.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"randcrf: {weights}: {message}")
        assert err.count("\n") == 1


@pytest.mark.parametrize("beta", ["inf", "1e-320", "nan", "0", "-1"])
def test_cli_eval_refuses_a_bad_scale(tmp_path, capsys, beta):
    # --beta inf printed the uniform distribution's loss and --beta 1e-320
    # NaN, and both exited 0
    data, weights = tmp_path / "d.jsonl", tmp_path / "w.json"
    assert cli.main(["gen-data", "--family", "set:3,6", "--seed", "1", "--m", "5",
                     "--out", str(data)]) == 0
    save_weights(weights, np.full(SET36.feature_dim, 0.5))
    capsys.readouterr()
    assert cli.main(["eval", "--weights", str(weights), "--data", str(data), "--family",
                     "set:3,6", "--metrics", str(tmp_path / "m.csv"), f"--beta={beta}"]) == 2
    err = capsys.readouterr().err
    assert err == f"randcrf: beta must be finite and positive, with 1 / beta finite; " \
                  f"got {float(beta)}\n"
    assert not (tmp_path / "m.csv").exists()


def test_cli_input_errors_print_one_line(tmp_path, capsys):
    data, weights = tmp_path / "d.jsonl", tmp_path / "w.json"
    save_weights(weights, np.zeros(SET36.feature_dim))
    eval_args = ["eval", "--weights", str(weights), "--data", str(data),
                 "--family", "set:3,6", "--metrics", str(tmp_path / "m.csv")]
    assert cli.main(eval_args) == 2
    err = capsys.readouterr().err
    assert err.startswith("randcrf: ") and "No such file" in err and str(data) in err
    assert err.count("\n") == 1
    data.write_text(json.dumps({"x": "0" * SET36.feature_dim, "y": [0, 1]}) + "\n")
    assert cli.main(eval_args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"randcrf: {data}, line 1: 'y' [0, 1] is not a valid structure")
    assert err.count("\n") == 1


def test_experiment_config_round_trip():
    # the way `train --config` reads it: JSON text with a family label and
    # method names
    text = json.dumps({"family": "set:3,6", "repetitions": 3, "methods": ["crf_rand"],
                       "master_seed": 11})
    cfg = ExperimentConfig.from_dict(json.loads(text))
    assert cfg == ExperimentConfig(family=SET36, repetitions=3, methods=(Method.CRF_RAND,),
                                   master_seed=11)
    assert ExperimentConfig.from_dict({"family": "tree"}) == \
        ExperimentConfig(family=SpanningTreeFamily(6))
    # integers count as real numbers, and null keeps a default of None
    assert ExperimentConfig.from_dict({"family": "tree", "l1_lambda": 0, "beta": None,
                                       "n_target": None}) == \
        ExperimentConfig(family=SpanningTreeFamily(6), l1_lambda=0)


def test_protocol_radius_is_two_unless_given():
    assert TrainConfig(method=Method.CRF_RAND).neighborhood_k == 2
    assert TrainConfig(method=Method.CRF_RAND, neighborhood_k=4).neighborhood_k == 4
    for label in ("tree:6", "dag:5,1", "dag:5,2", "set:4,15"):
        family = parse_family(label)
        assert ExperimentConfig(family=family).neighborhood_k == 2
        assert ExperimentConfig(family=family).resolved_k() == 2
        assert ExperimentConfig(family=family, neighborhood_k=4).resolved_k() == 4


@pytest.mark.parametrize("config,message", [
    ({"family": "set:3,6", "bogus": 1, "alpha": 2}, "unknown config keys: alpha, bogus"),
    ({"m_train": 10}, "config lacks the key 'family'"),
    (["set:3,6"], "config must be a JSON object"),
    ({"family": "set:3,6", "methods": 5}, "config key 'methods' must be a list of method names "
     "among crf_all, crf_rand, svm_all, svm_rand, got 5"),
    ({"family": "set:3,6", "methods": ["crf_all", "svm"]}, "config key 'methods' must be a list "
     "of method names among crf_all, crf_rand, svm_all, svm_rand, got ['crf_all', 'svm']"),
    ({"family": "set:3,6", "m_train": "abc"}, "config key 'm_train' must be an integer, got 'abc'"),
    ({"family": "set:3,6", "master_seed": 1.5}, "config key 'master_seed' must be an integer, "
     "got 1.5"),
    ({"family": "set:3,6", "iterations": True}, "config key 'iterations' must be an integer, "
     "got True"),
    ({"family": "set:3,6", "l1_lambda": "0.1"}, "config key 'l1_lambda' must be a real number, "
     "got '0.1'"),
    ({"family": 5}, "config key 'family' must be a family label, got 5"),
    ({"family": "set:3,6", "beta": -1}, "beta must be finite and positive, with 1 / beta "
     "finite; got -1"),
    ({"family": "set:3,6", "m_train": -5}, "m_train must be >= 1"),
    ({"family": "set:3,6", "m_train": 0}, "m_train must be >= 1"),
    ({"family": "set:3,6", "m_test": 0}, "m_test must be >= 1"),
    ({"family": "set:3,6", "iterations": 0}, "iterations must be >= 1"),
    ({"family": "set:3,6", "n_target": 0}, "n_target must be >= 1"),
    ({"family": "set:3,6", "neighborhood_k": -1}, "neighborhood_k must be >= 1"),
    ({"family": "set:3,6", "master_seed": -1}, "master_seed must be >= 0"),
    ({"family": "set:3,6", "methods": ["crf_all", "svm_all", "crf_all"]},
     "method crf_all is listed twice"),
    ({"family": "set:3,6", "step0": 0.5}, "unknown config keys: step0"),
    ({"family": "set:3,6", "neighborhood_k": None}, "config key 'neighborhood_k' must be an "
     "integer, got None"),
    ({"family": "set:3,6", "l1_lambda": float("nan")}, "l1_lambda must be finite and >= 0, "
     "got nan"),
    ({"family": "set:3,6", "l1_lambda": -0.5}, "l1_lambda must be finite and >= 0, got -0.5"),
    ({"family": "set:3,6", "beta": float("inf")}, "beta must be finite and positive, with "
     "1 / beta finite; got inf"),
])
def test_cli_train_rejects_bad_config_files(tmp_path, capsys, config, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_dict(config)
    path, data = tmp_path / "cfg.json", tmp_path / "d.jsonl"
    path.write_text(json.dumps(config))
    data.write_text(json.dumps({"x": "0" * SET36.feature_dim, "y": [0, 1, 2]}) + "\n")
    assert cli.main(["train", "--method", "crf_all", "--config", str(path), "--data", str(data),
                     "--out-weights", str(tmp_path / "w.json")]) == 2
    assert capsys.readouterr().err == f"randcrf: {path}: {message}\n"
    assert not (tmp_path / "w.json").exists()


def test_metrics_csv_write(tmp_path, smoke_records):
    _, records = smoke_records
    path = tmp_path / "metrics.csv"
    write_csv(path, METRICS_CSV_HEADER, map(dataclasses.astuple, records))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == METRICS_CSV_HEADER
    assert len(rows) == len(records) + 1
    assert rows[1] == [str(getattr(records[0], k)) for k in METRICS_CSV_HEADER]


# ---------------------------------------------------------------------------
# command line


def test_cli_gen_train_eval_round_trip(tmp_path):
    data = tmp_path / "d.jsonl"
    weights = tmp_path / "w.json"
    trace = tmp_path / "trace.csv"
    metrics = tmp_path / "m.csv"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"family": "set:3,6", "iterations": 4, "master_seed": 3}))
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
    assert rows[0] == ["run_id", "method", "kind", "value"]
    kinds = {r[2] for r in rows[1:]}
    assert kinds == {"exact_crf", "hamming"}
    w = load_weights(weights)
    assert w.shape == (SET36.feature_dim,)


def test_cli_gen_train_eval_reproduces_repetition_zero(tmp_path):
    # gen-data and train draw from the streams of repetition 0 of
    # reproduce --seed, and train's n_target and beta follow the data's m
    seed, m, iterations = 3, 15, 4
    data, config = tmp_path / "d.jsonl", tmp_path / "cfg.json"
    config.write_text(json.dumps({"family": "set:3,6", "iterations": iterations,
                                  "l1_lambda": 0.01, "master_seed": seed}))
    assert cli.main(["gen-data", "--family", "set:3,6", "--seed", str(seed), "--m", str(m),
                     "--out", str(data)]) == 0
    cfg = ExperimentConfig(family=SET36, m_train=m, iterations=iterations, l1_lambda=0.01,
                           master_seed=seed, methods=(Method.CRF_RAND, Method.SVM_RAND))
    for record in run_repetition(cfg, 0):
        weights, metrics = tmp_path / f"{record.method}.json", tmp_path / f"{record.method}.csv"
        assert cli.main(["train", "--method", record.method, "--config", str(config),
                         "--data", str(data), "--out-weights", str(weights)]) == 0
        w = load_weights(weights)
        assert record.weight_support > 0
        assert int(np.count_nonzero(w)) == record.weight_support
        assert float(np.abs(w).sum()) == record.weight_l1
        if record.method == "crf_rand":
            assert cli.main(["eval", "--weights", str(weights), "--data", str(data),
                             "--family", "set:3,6", "--metrics", str(metrics)]) == 0
            with open(metrics) as fh:
                values = {row["kind"]: float(row["value"]) for row in csv.DictReader(fh)}
            assert values["exact_crf"] == record.train_loss_exact


@pytest.mark.parametrize("key,value", [
    ("m_train", 30), ("m_test", 30), ("repetitions", 1), ("methods", ["crf_rand"]),
])
def test_cli_train_refuses_protocol_keys(tmp_path, capsys, key, value):
    # train takes m from its data file and trains one --method; these keys
    # were read for n_target (m_train) or ignored
    path, data = tmp_path / "cfg.json", tmp_path / "d.jsonl"
    path.write_text(json.dumps({"family": "set:3,6", key: value}))
    data.write_text(json.dumps({"x": "0" * SET36.feature_dim, "y": [0, 1, 2]}) + "\n")
    assert cli.main(["train", "--method", "crf_rand", "--config", str(path), "--data", str(data),
                     "--out-weights", str(tmp_path / "w.json")]) == 2
    assert capsys.readouterr().err == (f"randcrf: {path}: train takes m from --data and the "
                                       f"method from --method; drop {key}\n")
    assert not (tmp_path / "w.json").exists()


@pytest.mark.parametrize("m", ["0", "-1"])
def test_cli_gen_data_refuses_sizes_below_one(tmp_path, capsys, m):
    out = tmp_path / "d.jsonl"
    assert cli.main(["gen-data", "--family", "set:3,6", "--m", m, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"randcrf: --m must be >= 1, got {m}\n")
    assert not out.exists()


def test_cli_bounds_table(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert cli.main(["bounds", "--grid", "d=105;s=11;m=25,100;n=10;r=1365;delta=0.05",
                     "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "generalization" in printed
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    # a mistyped key ('l' for 'l1') is named, not ignored
    assert cli.main(["bounds", "--grid", "d=105;s=11;m=100;n=10;r=1365;delta=0.05;l=7"]) == 2
    assert capsys.readouterr() == ("", "randcrf: unknown grid keys: l\n")
    # a value that does not convert names its key
    assert cli.main(["bounds", "--grid", "d=abc;s=11;m=100;n=10;r=1365;delta=0.05"]) == 2
    assert capsys.readouterr() == ("", "randcrf: grid key 'd' needs int values, got 'abc'\n")
    assert cli.main(["bounds", "--grid", "d=105;s=11;m=100;n=10;r=1365;delta=0.05,x"]) == 2
    assert capsys.readouterr() == ("", "randcrf: grid key 'delta' needs float values, "
                                       "got '0.05,x'\n")
    # an L1 norm is finite and not negative
    for l1, shown in (("-3,3", "-3.0"), ("nan", "nan")):
        assert cli.main(["bounds", "--grid",
                         f"d=105;s=11;m=100;n=10;r=1365;delta=0.05;l1={l1}"]) == 2
        assert capsys.readouterr() == ("", f"randcrf: l1 must be finite and >= 0, got {shown}\n")


@pytest.mark.parametrize("command", [
    ["gen-data", "--family", "set:3,6"],
    ["reproduce", "--families", "set:3,6", "--reps", "1"],
])
def test_cli_rejects_negative_seeds(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert cli.main(command + ["--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "randcrf: --seed must be >= 0, got -1\n")
    assert not out.exists()


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


def test_cli_reproduce_summary_needs_two_repetitions(tmp_path, capsys, monkeypatch):
    def train(*args, **kwargs):
        raise AssertionError("trained before the arguments were checked")

    monkeypatch.setattr("randcrf.harness._train_method", train)
    out = tmp_path / "m.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["reproduce", "--families", "set:3,6", "--reps", "1", "--out", str(out),
                  "--summary", str(tmp_path / "s.csv")])
    assert exc.value.code == 2
    assert "--summary needs --reps 2 or more" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option,message", [
    (["--methods", "crf_all,crf_all"], "method crf_all is listed twice"),
    (["--families", "set:3,6,set:3,6"], "family set:3,6 is listed twice"),
    (["--families", "set,tree,set:4,15"], "family set:4,15 is listed twice"),
    (["--l1", "nan"], "l1_lambda must be finite and >= 0, got nan"),
])
def test_cli_reproduce_refuses_repeats(tmp_path, capsys, monkeypatch, option, message):
    # a repeat would train twice and double the records behind each interval;
    # a NaN penalty trained every method to failure and wrote no record
    def train(*args, **kwargs):
        raise AssertionError("trained before the arguments were checked")

    monkeypatch.setattr("randcrf.harness._train_method", train)
    out = tmp_path / "m.csv"
    assert cli.main(["reproduce", "--families", "set:3,6", "--reps", "2", *option,
                     "--out", str(out), "--summary", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr() == ("", f"randcrf: {message}\n")
    assert not out.exists()
    # no methods at all stays legal
    assert ExperimentConfig(family=SET36, methods=()).methods == ()


def test_cli_reproduce_fails_when_a_method_fails(tmp_path, monkeypatch, capsys):
    def diverge(*args, **kwargs):
        raise FloatingPointError("diverged")

    monkeypatch.setattr("randcrf.harness.train_svm", diverge)
    out, summary = tmp_path / "m.csv", tmp_path / "s.csv"
    assert cli.main(["reproduce", "--families", "set:3,6", "--reps", "2", "--m-train", "12",
                     "--m-test", "12", "--iterations", "2", "--seed", "3",
                     "--out", str(out), "--summary", str(summary)]) == 1
    err = capsys.readouterr().err
    failed = {line for line in err.splitlines() if line.startswith("failed:")}
    assert failed == {f"failed: family set:3,6, repetition {rep}, method {m}"
                      for rep in (0, 1) for m in ("svm_all", "svm_rand")}
    with open(out) as fh:
        assert {row["method"] for row in csv.DictReader(fh)} == {"crf_all", "crf_rand"}
    assert summary.exists()
