import csv
import json
import math
import types

import pytest

from fairderand import cli, measure
from fairderand.cli import main
from fairderand.dataio import load_dataset, save_dataset
from fairderand import Dataset, Point, TabularScorer
from fairderand.errors import (
    DataFormatError,
    DimensionMismatchError,
    FairderandError,
    GridTooCoarseError,
    UnknownBucketError,
    ZeroVectorError,
)
from fairderand.metrics import JaccardDistance


def write_dataset(path, rows, header):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture
def scored_csv(tmp_path):
    path = tmp_path / "data.csv"
    write_dataset(
        path,
        [
            ["a", 1, 0, 1, "0.2"],
            ["b", 0, 1, 1, "0.45"],
            ["c", 1, 1, 0, "0.7"],
            ["d", 1, 1, 1, "0.9"],
        ],
        ["id", "feat_0", "feat_1", "feat_2", "score"],
    )
    return path


@pytest.fixture
def config_factory(tmp_path):
    def make(**overrides):
        config = {
            "scheme": "rt",
            "k": 10,
            "seed": 7,
            "mode": "exact",
            "out": str(tmp_path / "reports"),
        }
        config.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    return make


class TestDataIO:
    def test_round_trip(self, tmp_path, scored_csv):
        dataset, scorer = load_dataset(scored_csv)
        assert len(dataset) == 4
        assert scorer is not None
        assert float(scorer.score(dataset.get("b"))) == 0.45
        out = tmp_path / "copy.csv"
        save_dataset(out, dataset, scorer)
        dataset2, scorer2 = load_dataset(out)
        assert [p.id for p in dataset2] == [p.id for p in dataset]
        for p in dataset:
            assert scorer2.score(p) == scorer.score(p)
            assert dataset2.get(p.id).features == p.features

    def test_fairness_features_and_labels(self, tmp_path):
        path = tmp_path / "z.csv"
        write_dataset(
            path,
            [["a", 0.5, 1, 0, 1], ["b", 0.25, 0, 1, ""]],
            ["id", "feat_0", "z_0", "z_1", "label"],
        )
        dataset, scorer = load_dataset(path)
        assert scorer is None
        assert dataset.get("a").fairness_features == (1.0, 0.0)
        assert dataset.get("a").label == 1
        assert dataset.get("b").label is None
        out = tmp_path / "z2.csv"
        save_dataset(out, dataset)
        assert load_dataset(out)[0].get("b").fairness_features == (0.0, 1.0)

    def test_rejects_unknown_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_dataset(path, [["a", 1, 2]], ["id", "feat_0", "mystery"])
        with pytest.raises(DataFormatError):
            load_dataset(path)

    def test_rejects_missing_id_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_dataset(path, [["a", 1]], ["name", "feat_0"])
        with pytest.raises(DataFormatError):
            load_dataset(path)


class TestDerandomizeCommand:
    def test_replay_is_byte_identical(self, scored_csv, config_factory, tmp_path):
        config = config_factory(input=str(scored_csv))
        assert main(["derandomize", "--config", str(config)]) == 0
        report = (tmp_path / "reports" / "derandomize.json").read_bytes()
        assert main(["derandomize", "--config", str(config)]) == 0
        assert (tmp_path / "reports" / "derandomize.json").read_bytes() == report

    def test_ls_report_includes_bit_budget(self, scored_csv, config_factory, tmp_path):
        config = config_factory(
            input=str(scored_csv), scheme="ls", k=11, lsh={"kind": "bit_sampling"}
        )
        assert main(["derandomize", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "reports" / "derandomize.json").read_text())
        assert {"pi_bits", "lsh_bits", "total"} <= set(report["bit_budget"])
        assert report["bit_budget"]["total"] == (
            report["bit_budget"]["pi_bits"] + report["bit_budget"]["lsh_bits"]
        )

    @pytest.mark.parametrize(
        "overrides,keys,member",
        [
            (dict(scheme="rt"), {"u", "k"}, None),
            (dict(scheme="pi", k=11, bucketer={"kind": "identity"}), {"a", "c", "k"}, None),
            # one realized bucket: the affine family is the shared threshold u
            (dict(scheme="pi", k=11, bucketer={"kind": "grid", "resolution": 10.0}), {"u", "k"}, None),
            (dict(scheme="ls", k=11, lsh={"kind": "bit_sampling"}), {"a", "c", "k", "lsh_member"},
             ("coordinate", "index")),
            (dict(scheme="ls", k=11, lsh={"kind": "minhash"}), {"a", "c", "k", "lsh_member"},
             ("permutation", "ranks")),
            (dict(scheme="ls", k=11, lsh={"kind": "simhash"}), {"a", "c", "k", "lsh_member"},
             ("hyperplane", "normal")),
        ],
    )
    def test_classifier_keys(self, scored_csv, config_factory, tmp_path, overrides, keys, member):
        config = config_factory(input=str(scored_csv), **overrides)
        assert main(["derandomize", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "reports" / "derandomize.json").read_text())
        clf = report["classifier"]
        assert set(clf) == keys
        assert clf["k"] == overrides.get("k", 10)
        if member is not None:
            kind, field = member
            assert clf["lsh_member"]["kind"] == kind
            assert set(clf["lsh_member"]) == {"kind", field}

    def test_missing_score_column_is_data_error(self, tmp_path, config_factory, capsys):
        path = tmp_path / "noscore.csv"
        write_dataset(path, [["a", 1], ["b", 0]], ["id", "feat_0"])
        config = config_factory(input=str(path), scheme="pi", bucketer={"kind": "grid", "resolution": 1.0})
        assert main(["derandomize", "--config", str(config)]) == 3
        assert "score" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, scored_csv, config_factory, tmp_path):
        config = config_factory(input=str(scored_csv))
        main(["derandomize", "--config", str(config)])
        base = json.loads((tmp_path / "reports" / "derandomize.json").read_text())
        main(["derandomize", "--config", str(config), "--seed", "8"])
        other = json.loads((tmp_path / "reports" / "derandomize.json").read_text())
        assert base["seed"] != other["seed"]


class TestAuditCommand:
    def test_exact_audit_has_no_stderr_fields(self, scored_csv, config_factory, tmp_path):
        config = config_factory(
            input=str(scored_csv), scheme="rt", k=10,
            metric={"kind": "hamming"}, alpha=1.0, beta=0.2,
        )
        assert main(["audit", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "reports" / "audit.json").read_text())
        assert "stderr" not in report["quantities"]["aggregate_bias"]
        assert report["quantities"]["aggregate_bias"]["satisfied"]

    def test_ls_audit_reports_worked_bound(self, scored_csv, config_factory, tmp_path):
        config = config_factory(
            input=str(scored_csv), scheme="ls", k=500,
            lsh={"kind": "bit_sampling"}, metric={"kind": "hamming"},
            mode="mc", trials=4000, alpha=1.0, beta=0.0, tau=0.05, delta=0.25,
        )
        assert main(["audit", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "reports" / "audit.json").read_text())
        bound = report["quantities"]["worst_case_aggregate_bound"]["value"]
        assert bound == pytest.approx(0.237)

    def test_exact_mode_on_simhash_exits_4(self, scored_csv, config_factory):
        config = config_factory(
            input=str(scored_csv), scheme="ls", k=11, lsh={"kind": "simhash"},
        )
        assert main(["audit", "--config", str(config)]) == 4

    def test_no_pair_within_tau_is_config_error(self, scored_csv, config_factory, capsys):
        # the LS block's default tau (0.05) is below 1/3, the smallest
        # Hamming distance between distinct 3-bit points
        config = config_factory(
            input=str(scored_csv), scheme="ls", k=11,
            lsh={"kind": "bit_sampling"}, n_classifiers=5,
        )
        assert main(["audit", "--config", str(config)]) == 2
        assert "config error: no pairs within distance" in capsys.readouterr().err

    def test_subsampled_audit_reports_pair_seed(self, scored_csv, config_factory, tmp_path):
        config = config_factory(input=str(scored_csv), pairs_cap=3)
        assert main(["audit", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "reports" / "audit.json").read_text())
        fairness = report["quantities"]["metric_fairness"]
        assert report["pair_sample_seed"] == fairness["pair_sample_seed"]["value"] == 7
        assert fairness["pairs_checked"]["value"] == 3

    def test_curve_csv_emitted(self, scored_csv, config_factory, tmp_path):
        config = config_factory(
            input=str(scored_csv), scheme="rt", k=10,
            curve_alphas=[0.0, 0.5, 1.0],
        )
        assert main(["audit", "--config", str(config)]) == 0
        with open(tmp_path / "reports" / "fairness_curve.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["alpha_hat", "beta_hat"]
        assert len(rows) == 4


    def test_replay_is_byte_identical(self, scored_csv, config_factory, tmp_path):
        config = config_factory(
            input=str(scored_csv), scheme="ls", k=11, lsh={"kind": "minhash"},
            metric={"kind": "jaccard"}, mode="mc", trials=500, pairs_cap=4,
            tau=0.5, n_classifiers=5, curve_alphas=[0.0, 1.0],
        )
        outputs = []
        for _ in range(2):
            assert main(["audit", "--config", str(config)]) == 0
            outputs.append([(tmp_path / "reports" / name).read_bytes()
                            for name in ("audit.json", "fairness_curve.csv")])
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0])["pair_sample_seed"] == 7

    @pytest.mark.parametrize(
        "mode,extra",
        [
            ("exact", dict(curve_alphas=[0.0, 1.0])),
            ("mc", dict()),
            ("mc", dict(curve_alphas=[0.0, 1.0])),
        ],
    )
    def test_one_oracle_evaluation_per_point(self, scored_csv, config_factory, monkeypatch, mode, extra):
        # the oracle answers a block of points per call: its rows total one
        # per point, from one batch per audit
        calls = {"points": 0, "batches": 0}

        def bits(self, points, t, x):
            calls["points"] += len(points)
            return oracle(self, points, t, x)

        def init(*args, **kwargs):
            calls["batches"] += 1
            return batch_init(*args, **kwargs)

        oracle, batch_init = measure._ClassifierBatch.bits, measure._ClassifierBatch.__init__
        monkeypatch.setattr(measure._ClassifierBatch, "bits", bits)
        monkeypatch.setattr(measure._ClassifierBatch, "__init__", init)
        config = config_factory(
            input=str(scored_csv), scheme="ls", k=11, lsh={"kind": "bit_sampling"},
            mode=mode, trials=200, tau=0.4, n_classifiers=5, **extra,
        )
        assert main(["audit", "--config", str(config)]) == 0
        assert calls == {"points": 4, "batches": 1}

    def test_one_pair_pass_per_audit(self, scored_csv, config_factory, monkeypatch):
        # the fairness check, family beta, the tail check's close pairs and
        # the curve all read one pass over the pairs
        calls = {"distances": 0, "splits": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(JaccardDistance, "pair_distances", counting("distances", JaccardDistance.pair_distances))
        monkeypatch.setattr(measure.PredictionTable, "split_counts",
                            counting("splits", measure.PredictionTable.split_counts))
        config = config_factory(
            input=str(scored_csv), scheme="ls", k=11, lsh={"kind": "minhash"},
            metric={"kind": "jaccard"}, mode="mc", trials=300, tau=0.5, n_classifiers=5,
            curve_alphas=[0.0, 1.0],
        )
        assert main(["audit", "--config", str(config)]) == 0
        assert calls == {"distances": 1, "splits": 1}

    def test_no_batch_before_first_measure_call(self, scored_csv, config_factory, monkeypatch):
        # the benchmark times set-up up to the first call of a module-level
        # fairderand.measure function; the Monte Carlo batch must come after
        events = []

        def recording(event, fn):
            def wrapper(*args, **kwargs):
                events.append(event)
                return fn(*args, **kwargs)
            return wrapper

        functions = {
            id(obj) for obj in vars(measure).values()
            if isinstance(obj, types.FunctionType) and obj.__module__ == measure.__name__
        }
        for module in (measure, cli):
            for name, obj in list(vars(module).items()):
                if id(obj) in functions:
                    monkeypatch.setattr(module, name, recording("measure", obj))
        for name in ("__init__", "bits"):
            monkeypatch.setattr(
                measure._ClassifierBatch, name, recording("batch", getattr(measure._ClassifierBatch, name))
            )
        config = config_factory(
            input=str(scored_csv), scheme="ls", k=11, lsh={"kind": "bit_sampling"},
            mode="mc", trials=200, tau=0.4, n_classifiers=5,
        )
        assert main(["audit", "--config", str(config)]) == 0
        assert "batch" in events
        assert events.index("measure") < events.index("batch")


class TestAdversarialCommand:
    def test_sphere_emits_dataset_and_report(self, config_factory, tmp_path):
        config = config_factory(
            scheme="pi", k=101, alpha=1.0, beta=0.1,
            adversarial={"construction": "sphere", "n_points": 6,
                         "dimension": 2, "delta_sphere": 0.15, "eps_gap": 0.05},
        )
        assert main(["adversarial", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "reports" / "adversarial.json").read_text())
        assert report["quantities"]["pairs_not_violating_target"]["value"] == 0
        dataset, scorer = load_dataset(tmp_path / "reports" / "sphere.csv")
        assert len(dataset) == 6
        assert scorer is not None

    def test_invalid_beta_exits_2(self, config_factory):
        config = config_factory(
            scheme="pi", k=101, alpha=1.0, beta=0.5,
            adversarial={"construction": "sphere", "n_points": 6,
                         "dimension": 2, "delta_sphere": 0.15, "eps_gap": 0.05},
        )
        assert main(["adversarial", "--config", str(config)]) == 2

    def test_violation_search_round_trip(self, tmp_path, config_factory):
        data = tmp_path / "line.csv"
        write_dataset(
            data,
            [["a", "0.1", "0.3"], ["b", "0.9", "0.8"]],
            ["id", "feat_0", "score"],
        )
        config = config_factory(
            input=str(data), scheme="rt", k=4, alpha=1.0, beta=0.1,
            scorer={"kind": "affine", "weights": [1.0], "bias": 0.0},
            metric={"kind": "scaled_euclidean", "scale": 1.0},
            adversarial={"construction": "violation_search", "grid_steps": 801,
                         "grid_start": [0.0], "grid_stop": [1.0]},
        )
        assert main(["adversarial", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "reports" / "adversarial.json").read_text())
        assert report["violation"] is not None
        x = report["violation"]["x"]["features"]
        y = report["violation"]["x_star"]["features"]
        assert abs(x[0] - y[0]) <= 1 / 800 + 1e-12


class TestStrategicCommand:
    def test_rows_and_bound_flags(self, scored_csv, config_factory, tmp_path):
        config = config_factory(
            input=str(scored_csv), metric={"kind": "hamming"},
            alpha=2.0, beta=1.0,
        )
        assert main(["strategic", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "reports" / "strategic.json").read_text())
        assert len(report["responses"]) == 4
        assert {"origin", "response", "gain", "bound", "ok"} <= set(report["responses"][0])


class TestBoundsCommand:
    def test_bounds_evaluated(self, config_factory, tmp_path):
        config = config_factory(
            bounds=[
                {"name": "aggregate_tail", "alpha": 1, "beta": 0, "tau": 0.05, "delta": 0.25},
                {"name": "bias", "k": 100},
            ]
        )
        assert main(["bounds", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "reports" / "bounds.json").read_text())
        values = {row["name"]: row["value"] for row in report["bounds"]}
        assert values["aggregate_tail"] == pytest.approx(0.15)
        assert values["bias"] == pytest.approx(0.01)

    def test_unknown_bound_exits_2(self, config_factory):
        config = config_factory(bounds=[{"name": "nope"}])
        assert main(["bounds", "--config", str(config)]) == 2


class TestConfigHandling:
    def test_missing_config_exits_2(self):
        assert main(["audit", "--config", "/nonexistent/config.json"]) == 2

    def test_bad_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["audit", "--config", str(path)]) == 2

    @pytest.mark.parametrize("overrides", [dict(delta=1.0), dict(delta=0), dict(tau=1.5)])
    def test_out_of_range_tau_or_delta_exits_2(self, scored_csv, config_factory, capsys, overrides):
        config = config_factory(input=str(scored_csv), **overrides)
        assert main(["audit", "--config", str(config)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_single_point_audit_exits_2(self, tmp_path, config_factory, capsys):
        # one point has no pairs: no fairness verdict and no -Infinity in the report
        path = tmp_path / "one.csv"
        write_dataset(path, [["a", 1, 0, "0.5"]], ["id", "feat_0", "feat_1", "score"])
        config = config_factory(input=str(path))
        assert main(["audit", "--config", str(config)]) == 2
        assert "config error: no pairs to check" in capsys.readouterr().err
        assert not (tmp_path / "reports" / "audit.json").exists()

    def test_zero_pairs_cap_exits_2(self, scored_csv, config_factory, capsys, tmp_path):
        config = config_factory(input=str(scored_csv))
        assert main(["audit", "--config", str(config), "--pairs-cap", "0"]) == 2
        assert "config error: pairs_cap must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "reports" / "audit.json").exists()

    @pytest.mark.parametrize("n_classifiers", [-3, 2.5])
    def test_bad_n_classifiers_exits_2(self, scored_csv, config_factory, capsys, tmp_path, n_classifiers):
        # a negative count used to pass the tail check vacuously
        config = config_factory(
            input=str(scored_csv), scheme="ls", k=11, lsh={"kind": "bit_sampling"},
            tau=0.4, n_classifiers=n_classifiers,
        )
        assert main(["audit", "--config", str(config)]) == 2
        assert "config error: n_classifiers" in capsys.readouterr().err
        assert not (tmp_path / "reports" / "audit.json").exists()

    @pytest.mark.parametrize(
        "overrides,message",
        [
            (dict(k=11.7), "k must be an integer"),
            (dict(k=True), "k must be an integer"),
            (dict(trials=2.9), "trials must be an integer"),
            (dict(seed=3.7), "seed must be an integer"),
            (dict(pairs_cap=1000.5), "pairs_cap must be an integer"),
            (dict(tau=True), "tau must be a number"),
            (dict(tau="0.2"), "tau must be a number"),
            (dict(delta="0.25"), "delta must be a number"),
        ],
        ids=["k-float", "k-bool", "trials-float", "seed-float", "pairs_cap-float", "tau-bool", "tau-str", "delta-str"],
    )
    def test_malformed_number_exits_2(self, scored_csv, config_factory, capsys, tmp_path, overrides, message):
        # these used to be truncated or parsed silently: k = 11.7 audited k = 11
        config = config_factory(**{
            "input": str(scored_csv), "scheme": "ls", "k": 11, "lsh": {"kind": "bit_sampling"}, "mode": "mc",
            "trials": 50, "tau": 0.4, "delta": 0.25, "n_classifiers": 3, **overrides,
        })
        assert main(["audit", "--config", str(config)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "reports").exists()

    def test_integral_float_numbers_are_accepted(self, scored_csv, config_factory, tmp_path):
        config = config_factory(input=str(scored_csv), k=11.0, trials=50.0, seed=3.0, pairs_cap=4.0, mode="mc")
        assert main(["audit", "--config", str(config)]) == 0

    @pytest.mark.parametrize(
        "command,overrides,message",
        [
            ("adversarial", dict(adversarial={"construction": "violation_search", "grid_steps": 1}),
             "adversarial.grid_steps must be at least 2"),
            ("adversarial", dict(adversarial={"construction": "violation_search", "grid_start": [0.0, 0.0]}),
             "grid_start and grid_stop must be lists of 3 numbers"),
            ("adversarial", dict(adversarial={"construction": "sphere", "n_points": "abc"}),
             "adversarial.n_points must be an integer"),
            ("adversarial", dict(adversarial={"construction": "sphere", "n_points": 10.7}),
             "adversarial.n_points must be an integer"),
            ("bounds", dict(bounds=[{"name": "bias", "x": 3}]), "bound 'bias' takes the inputs ['k']"),
            ("bounds", dict(bounds=[{"name": "bias", "k": "7"}]), "the inputs of bound 'bias' must be finite numbers"),
            ("bounds", dict(bounds=[{"name": "bias", "k": 7.5}]), "k must be a positive integer"),
            ("audit", dict(scheme="pi", bucketer={"kind": "grid", "resolution": "x"}),
             "bucketer.resolution must be a number"),
            ("audit", dict(scheme="ls", k=11, lsh={"kind": "bit_sampling", "n": 1.5}), "lsh.n must be an integer"),
            ("audit", dict(metric={"kind": "hamming", "n": 2.5}), "metric.n must be an integer"),
            ("audit", dict(metric="hamming"), "metric must be an object"),
        ],
        ids=["grid_steps-1", "grid_start-length", "n_points-str", "n_points-float", "bounds-key", "bounds-str",
             "bounds-k-float", "resolution-str", "lsh_n-float", "metric_n-float", "metric-str"],
    )
    def test_malformed_nested_value_exits_2(self, scored_csv, config_factory, capsys, tmp_path,
                                            command, overrides, message):
        # each is a config error: not a traceback, a truncation (10.7 points) or a data error (metric.n 2.5)
        config = config_factory(input=str(scored_csv), **overrides)
        assert main([command, "--config", str(config)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "reports").exists()

    def test_integral_float_nested_numbers_are_accepted(self, scored_csv, config_factory, tmp_path):
        config = config_factory(input=str(scored_csv), scheme="ls", k=11, lsh={"kind": "bit_sampling", "n": 3.0},
                                metric={"kind": "hamming", "n": 3.0})
        assert main(["audit", "--config", str(config)]) == 0

    @pytest.mark.parametrize(
        "overrides",
        [dict(alpha=math.nan), dict(beta=math.inf), dict(curve_alphas=[0.0, math.nan]), dict(alpha="1")],
    )
    def test_non_finite_alpha_beta_or_curve_exits_2(self, scored_csv, config_factory, capsys, tmp_path, overrides):
        config = config_factory(input=str(scored_csv), **overrides)
        assert main(["audit", "--config", str(config)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "reports").exists()

    def test_unwritable_report_leaves_no_file(self, tmp_path):
        with pytest.raises(ValueError):
            cli._write_report(tmp_path, "audit.json", {"value": math.nan})
        assert not (tmp_path / "audit.json").exists()

    def test_missing_input_file_exits_3(self, config_factory):
        config = config_factory(input="/nonexistent/data.csv")
        assert main(["audit", "--config", str(config)]) == 3


class TestDataErrors:
    @pytest.mark.parametrize(
        "lsh,message",
        [
            ({"kind": "bit_sampling", "n": 5}, "bit sampling reads coordinate 3 of a 3-dimensional point"),
            ({"kind": "minhash", "universe_size": 2}, "set element 2 is outside the universe of 2"),
        ],
        ids=["bit_sampling", "minhash"],
    )
    def test_lsh_wider_than_its_family_exits_3(self, scored_csv, config_factory, capsys, tmp_path, lsh, message):
        # these ended in an IndexError traceback (exit 1)
        config = config_factory(input=str(scored_csv), scheme="ls", k=11, lsh=lsh, metric={"kind": "jaccard"})
        assert main(["audit", "--config", str(config)]) == 3
        assert f"data error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "reports").exists()

    def test_simhash_dimension_mismatch_exits_3(self, scored_csv, config_factory, capsys, tmp_path):
        # this exited 2, as a config error
        config = config_factory(
            input=str(scored_csv), scheme="ls", k=11, mode="mc", trials=50,
            lsh={"kind": "simhash", "dim": 4}, metric={"kind": "angular"},
        )
        assert main(["audit", "--config", str(config)]) == 3
        assert "data error: dimension mismatch in hyperplane hash" in capsys.readouterr().err
        assert not (tmp_path / "reports").exists()

    def test_hamming_dimension_mismatch_exits_3(self, scored_csv, config_factory, capsys):
        config = config_factory(input=str(scored_csv), metric={"kind": "hamming", "n": 2})
        assert main(["audit", "--config", str(config)]) == 3
        assert "data error: expected dimension 2, got 3" in capsys.readouterr().err

    def test_angular_metric_on_a_zero_row_exits_3(self, tmp_path, config_factory, capsys):
        path = tmp_path / "zero.csv"
        write_dataset(path, [["a", 0, 0, "0.5"], ["b", 1, 0, "0.2"]], ["id", "feat_0", "feat_1", "score"])
        config = config_factory(input=str(path), metric={"kind": "angular"})
        assert main(["audit", "--config", str(config)]) == 3
        assert "data error: angular distance undefined on the zero vector" in capsys.readouterr().err

    @staticmethod
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from TestDataErrors.subclasses(sub)

    def test_every_error_class_has_an_exit_code(self, scored_csv, config_factory, capsys, monkeypatch):
        config = config_factory(input=str(scored_csv))
        errors = set(self.subclasses(FairderandError))
        assert {DimensionMismatchError, ZeroVectorError, UnknownBucketError, GridTooCoarseError} <= errors
        for error in sorted(errors, key=lambda cls: cls.__name__):
            def fail(config, error=error):
                raise error("injected")

            monkeypatch.setitem(cli.COMMANDS, "audit", fail)
            try:
                code = main(["audit", "--config", str(config)])
            except FairderandError as exc:
                pytest.fail(f"{error.__name__} escaped main: {exc!r}")
            assert code in (2, 3, 4), error.__name__
            assert "injected" in capsys.readouterr().err
            if error in (DimensionMismatchError, ZeroVectorError, UnknownBucketError):
                assert code == 3
            if error is GridTooCoarseError:
                assert code == 2
