import copy
import csv
import gc
import json
import math
import os
import random
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fairderand
from fairderand import cli, measure
from fairderand.cli import main
from fairderand.dataio import load_dataset, save_dataset
from fairderand.derandomize import Derandomizer
from fairderand.errors import (
    DataError,
    DataFormatError,
    DimensionMismatchError,
    FairderandError,
    GridTooCoarseError,
    InvalidParameterError,
    NotEnumerableError,
    UnknownBucketError,
    ZeroVectorError,
)
from fairderand.hashing import SimHashFamily
from fairderand.metrics import JaccardDistance
from fairderand.rng import CountingRng

from conftest import random_binary_dataset, random_scorer


def run_python(*args):
    """A child interpreter on this checkout's package, which must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(Path(fairderand.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, check=True)


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
        numerators, den = scorer.scores(dataset)
        assert float(Fraction(int(numerators[dataset.ids.index("b")]), den)) == 0.45
        out = tmp_path / "copy.csv"
        save_dataset(out, dataset, scorer)
        dataset2, scorer2 = load_dataset(out)
        assert dataset2.ids == dataset.ids
        assert scorer2.scores(dataset)[0].tolist() == numerators.tolist() and scorer2.scores(dataset)[1] == den
        assert dataset2.features.tolist() == dataset.features.tolist()

    def test_fairness_features_and_labels(self, tmp_path):
        path = tmp_path / "z.csv"
        write_dataset(
            path,
            [["a", 0.5, 1, 0, 1], ["b", 0.25, 0, 1, ""]],
            ["id", "feat_0", "z_0", "z_1", "label"],
        )
        dataset, scorer = load_dataset(path)
        assert scorer is None
        assert dataset.fairness.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert dataset.labels == (1, None)
        out = tmp_path / "z2.csv"
        save_dataset(out, dataset)
        assert load_dataset(out)[0].fairness.tolist() == [[1.0, 0.0], [0.0, 1.0]]

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

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", ": empty file"),
            ("id,z_0,score\na,1,0.5\n", ": no feat_* columns"),
            ("id,feat_1,feat_0\na,1,0\n", ": feat_* columns must be feat_0..feat_1 in order"),
            ("id,feat_0,z_1\na,1,0\n", ": z_* columns must be z_0..z_0 in order"),
            ("id,feat_0\na,1,2\n", ":2: expected 2 fields, got 3"),
            # the blank line 3 is skipped, and line numbers count it
            ("id,feat_0\na,1\n\nb,x\n", ":4: could not convert string to float: 'x'"),
            ("id,feat_0\na,1\na,0\n", ": dataset ids must be unique"),
        ],
        ids=["empty", "no-feat", "feat-order", "z-order", "field-count", "bad-value", "duplicate-id"],
    )
    def test_format_error_messages(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataFormatError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}{message}"

    def test_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("id,feat_0\na,1\n\nb,0\n", encoding="utf-8")
        dataset, scorer = load_dataset(path)
        assert dataset.ids == ("a", "b") and scorer is None


def audited_predictions(config_path, seed: int) -> dict:
    """The predictions, by id, of the one classifier of a one-trial Monte
    Carlo table at the seed: the classifier that an mc audit evaluates."""
    config = json.loads(Path(config_path).read_text())
    dataset, scorer = cli._load_input(config)
    derand = cli._build_derandomizer(config, dataset, scorer)
    table = measure.prediction_table(derand, dataset, measure.EstimatorConfig(mode="mc", trials=1, seed=seed))
    return dict(zip(dataset.ids, np.unpackbits(table.rows[:, :1], axis=1)[:, 0].tolist()))


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

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(scheme="rt"),
            dict(scheme="pi", k=11, bucketer={"kind": "grid", "resolution": 1.0}),
            dict(scheme="ls", k=11, lsh={"kind": "bit_sampling"}),
            dict(scheme="ls", k=11, lsh={"kind": "minhash"}),
            dict(scheme="ls", k=11, lsh={"kind": "simhash"}),
        ],
    )
    def test_predictions_are_the_audited_classifier(self, scored_csv, config_factory, tmp_path, overrides, seed):
        config = config_factory(input=str(scored_csv), seed=seed, **overrides)
        assert main(["derandomize", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "reports" / "derandomize.json").read_text())
        assert report["predictions"] == audited_predictions(config, seed)

    def test_simhash_points_on_the_hyperplane_are_the_audited_classifier(self, tmp_path, config_factory):
        """Points orthogonal to the drawn normal, where a dot product's sign
        rests on rounding: the first three of 2,000 whose sign a left-to-right
        sum of the coordinate products gives differently from numpy's product
        (about a fifth of them, on the builds this was written on)."""
        (normal,) = SimHashFamily(8).draw(CountingRng(3), 1)
        candidates = np.random.default_rng(0).standard_normal((2000, 8))
        candidates -= np.outer(candidates @ normal, normal)
        split = [v for v in candidates.tolist()
                 if (sum(a * b for a, b in zip(normal.tolist(), v)) >= 0) != (normal @ v >= 0)]
        rows = [[f"x{r}", *map(repr, v), "0.5"] for r, v in enumerate((split or candidates.tolist())[:3])]
        path = tmp_path / "plane.csv"
        write_dataset(path, rows, ["id", *(f"feat_{i}" for i in range(8)), "score"])
        config = config_factory(input=str(path), scheme="ls", k=11, lsh={"kind": "simhash"}, seed=3)
        assert main(["derandomize", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "reports" / "derandomize.json").read_text())
        assert report["predictions"] == audited_predictions(config, 3)

    @pytest.mark.parametrize("seed", range(6))
    def test_bit_sampling_rejects_a_non_binary_feature_at_every_seed(self, tmp_path, config_factory, capsys, seed):
        path = tmp_path / "half.csv"
        write_dataset(path, [["a", 1, 0, 1, "0.2"], ["b", 0, 1, 0.5, "0.45"], ["c", 1, 1, 0, "0.7"]],
                      ["id", "feat_0", "feat_1", "feat_2", "score"])
        config = config_factory(input=str(path), scheme="ls", k=11, lsh={"kind": "bit_sampling"}, seed=seed)
        assert main(["derandomize", "--config", str(config)]) == 3
        assert capsys.readouterr().err == "data error: bit sampling requires 0/1 features\n"

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

    def test_constant_scorer_audit(self, scored_csv, config_factory, tmp_path):
        config = config_factory(input=str(scored_csv), scorer={"kind": "constant", "value": 0.25}, k=4)
        assert main(["audit", "--config", str(config)]) == 0
        quantities = json.loads((tmp_path / "reports" / "audit.json").read_text())["quantities"]
        # each threshold u predicts one bit at every point: no bias and no split
        # pair, and the member means are 1 for u = 1 and 0 otherwise
        assert quantities["aggregate_bias"]["value"] == 0
        assert quantities["aggregate_variance"]["value"] == 0.25 * 0.75
        assert quantities["metric_fairness"]["worst_excess"]["value"] < 0

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_pi_over_one_bucket_reports_as_rt(self, scored_csv, config_factory, tmp_path, mode):
        # one realized grid cell: the family is exactly RT's k shared thresholds, variance bound included
        reports = []
        for scheme in ({"scheme": "rt"}, {"scheme": "pi", "bucketer": {"kind": "grid", "resolution": 10.0}}):
            config = config_factory(input=str(scored_csv), k=11, mode=mode, trials=500, beta=0.1, **scheme)
            assert main(["audit", "--config", str(config)]) == 0
            reports.append(json.loads((tmp_path / "reports" / "audit.json").read_text())["quantities"])
        assert reports[0] == reports[1]
        assert "bound" in reports[1]["aggregate_variance"]

    def test_exact_verdict_on_a_float_distance_tie(self, tmp_path, config_factory):
        # the gap is 3/10 and the loaded distance is the double nearest 0.3,
        # just below it: compared exactly, the pair violates alpha * d + beta
        path = tmp_path / "tie.csv"
        write_dataset(path, [["a", "0", "0.05"], ["b", "0.3", "0.35"]], ["id", "feat_0", "score"])
        config = config_factory(input=str(path), scheme="rt", k=10, alpha=1, beta=0,
                                metric={"kind": "scaled_euclidean", "scale": 1})
        assert main(["audit", "--config", str(config)]) == 0
        fairness = json.loads((tmp_path / "reports" / "audit.json").read_text())["quantities"]["metric_fairness"]
        assert fairness["fairness_violations"]["value"] == 1
        assert fairness["fairness_violations"]["satisfied"] is False

    @pytest.mark.parametrize("feature,metric,curve", [
        ("3", {"kind": "scaled_euclidean", "scale": 1}, [0.0, 1.0]),
        ("1", {"kind": "hamming"}, None),
    ], ids=["scaled_euclidean-inf-curve", "hamming-fraction"])
    def test_report_value_beyond_float_range_exits_2(self, tmp_path, config_factory, capsys, feature, metric, curve):
        # worst_excess is gap - (alpha * d + beta) with alpha = beta = 1e308:
        # -inf under a float distance, a Fraction below -2e308 under Hamming
        path = tmp_path / "far.csv"
        write_dataset(path, [["a", "0", "0.05"], ["b", feature, "0.35"]], ["id", "feat_0", "score"])
        config = config_factory(input=str(path), scheme="rt", k=10, alpha=1e308, beta=1e308, metric=metric,
                                **({} if curve is None else {"curve_alphas": curve}))
        assert main(["audit", "--config", str(config)]) == 2
        assert capsys.readouterr().err == "config error: audit.json holds a value beyond a float's range on these inputs\n"
        assert not (tmp_path / "reports").exists()

    def test_exact_mode_on_simhash_exits_4(self, scored_csv, config_factory):
        config = config_factory(
            input=str(scored_csv), scheme="ls", k=11, lsh={"kind": "simhash"},
        )
        assert main(["audit", "--config", str(config)]) == 4

    @staticmethod
    def collision_reference(path, k, p, alphas):
        """What an exact audit (alpha 1, beta 0, Hamming, every pair) must
        report, in Python ints and Fractions from each pair's collision
        probability p: the pair splits with chance p |t_i - t_j| / k +
        (1 - p)(t_i (k - t_j) + t_j (k - t_i)) / k**2, and the variance sums
        p (k min(t_i, t_j) - t_i t_j) over ordered pairs, over k**2 n**2."""
        dataset, scorer = load_dataset(path)
        numerators, den = scorer.scores(dataset)
        x, s = dataset.features.tolist(), [Fraction(v, den) for v in numerators.tolist()]
        n, t = len(x), [math.floor(v * k) for v in s]
        d = lambda i, j: Fraction(sum(a != b for a, b in zip(x[i], x[j])), len(x[i]))
        gap = lambda i, j: (p(x[i], x[j]) * Fraction(abs(t[i] - t[j]), k) + (1 - p(x[i], x[j]))
                            * Fraction(t[i] * (k - t[j]) + t[j] * (k - t[i]), k * k))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        excess = [gap(i, j) - d(i, j) for i, j in pairs]
        variance = sum(p(x[i], x[j]) * (k * min(t[i], t[j]) - t[i] * t[j]) for i in range(n) for j in range(n))
        return {
            "bias": (Fraction(sum(t), k) - sum(s)) / n,
            "variance": variance / (k * k * n * n),
            "violations": sum(e > 0 for e in excess),
            "worst_excess": max(excess),
            "certified_beta": max(0, *excess),
            "curve": [sum(max(gap(i, j) - Fraction(a) * d(i, j), 0) for i, j in pairs) / len(pairs) for a in alphas],
        }

    @pytest.mark.parametrize(
        "overrides,p",
        [
            # 3 * 1009**2 members, above the 10**6 cap that once made this exit 4
            (dict(scheme="ls", k=1009, lsh={"kind": "bit_sampling"}, tau=0.5, n_classifiers=5),
             lambda x, y: Fraction(sum(a == b for a, b in zip(x, y)), len(x))),
            (dict(scheme="rt", k=10**12 + 39), lambda x, y: 1),
            # 2147483647**2 members: split counts near 2**62, class keys past 2**64
            (dict(scheme="pi", k=2_147_483_647, bucketer={"kind": "identity"}), lambda x, y: int(x == y)),
        ],
        ids=["ls-bit-sampling-1009", "rt-1e12", "pi-identity-2p31"],
    )
    def test_family_above_the_old_cap_is_exact(self, config_factory, tmp_path, overrides, p):
        # five distinct distances, and scores 0 and 1 split k * k members of the Pi family at
        # k = 2**31 - 1: class keys code * (split count + 1) would pass 2**64
        path, alphas = tmp_path / "fivebit.csv", [0.0, 0.5, 1.0]
        rows = [[f"p{r}", *bits, score] for r, (bits, score) in enumerate(zip(
            ["10000", "11000", "11100", "11110", "11111", "01111"], ["0", "0.45", "0.7", "1", "0.35", "0.6"]))]
        write_dataset(path, rows, ["id", *(f"feat_{i}" for i in range(5)), "score"])
        config = config_factory(input=str(path), metric={"kind": "hamming"}, curve_alphas=alphas, **overrides)
        assert main(["audit", "--config", str(config)]) == 0
        quantities = json.loads((tmp_path / "reports" / "audit.json").read_text())["quantities"]
        ref = self.collision_reference(path, overrides["k"], p, alphas)
        assert quantities["aggregate_bias"]["value"] == float(ref["bias"])
        assert quantities["aggregate_variance"]["value"] == float(ref["variance"])
        assert quantities["metric_fairness"]["fairness_violations"]["value"] == ref["violations"]
        assert quantities["metric_fairness"]["worst_excess"]["value"] == float(ref["worst_excess"])
        if "n_classifiers" in overrides:
            assert quantities["aggregate_fairness_tail"]["certified_beta"]["value"] == float(ref["certified_beta"])
        with open(tmp_path / "reports" / "fairness_curve.csv") as fh:
            curve = [float(row["beta_hat"]) for row in csv.DictReader(fh)]
        assert all(math.isclose(got, float(want), rel_tol=1e-12) for got, want in zip(curve, ref["curve"], strict=True))

    @pytest.mark.parametrize(
        "overrides,message",
        [
            (dict(scheme="pi", k=4_294_967_311, bucketer={"kind": "identity"}),
             "18446744202558570721 members: the closed form counts split members in int64, below 2**63"),
            (dict(scheme="ls", lsh={"kind": "simhash"}), "hyperplane families are continuous"),
            (dict(scheme="ls", lsh={"kind": "minhash", "universe_size": 8}),
             "universe of 8 has too many permutations to enumerate"),
        ],
        ids=["pi-identity-2p32", "simhash", "minhash8"],
    )
    def test_family_that_cannot_be_counted_exits_4(self, scored_csv, config_factory, capsys, tmp_path, overrides,
                                                   message):
        config = config_factory(input=str(scored_csv), **{"k": 11, **overrides})
        assert main(["audit", "--config", str(config)]) == 4
        assert capsys.readouterr().err == f"not enumerable in exact mode: {message}\n"
        assert not (tmp_path / "reports").exists()

    def test_no_pair_within_tau_is_config_error(self, scored_csv, config_factory, capsys):
        # the LS block's default tau (0.05) is below 1/3, the smallest
        # Hamming distance between distinct 3-bit points
        config = config_factory(
            input=str(scored_csv), scheme="ls", k=11,
            lsh={"kind": "bit_sampling"}, n_classifiers=5,
        )
        assert main(["audit", "--config", str(config)]) == 2
        assert "config error: no pairs within distance" in capsys.readouterr().err

    @pytest.mark.parametrize("tau,code", [(0.3, 0), (0.29, 2)])
    def test_tau_is_an_exact_decimal(self, tmp_path, config_factory, tau, code):
        # a and b differ in 3 of 10 coordinates: the pair lies within tau =
        # 0.3, which is 3/10, though the double nearest 0.3 is below 3/10
        path = tmp_path / "tenbit.csv"
        rows = [["a", *"1110000000", "0.2"], ["b", *"1101100000", "0.6"], ["c", *"0000011111", "0.9"]]
        write_dataset(path, rows, ["id", *(f"feat_{i}" for i in range(10)), "score"])
        config = config_factory(
            input=str(path), scheme="ls", k=11, lsh={"kind": "bit_sampling"}, tau=tau, n_classifiers=4,
        )
        assert main(["audit", "--config", str(config)]) == code
        if code == 0:
            report = json.loads((tmp_path / "reports" / "audit.json").read_text())
            assert "aggregate_fairness_tail" in report["quantities"]

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
        # predict answers a block of points per call: its rows total one per
        # point and drawn batch, from the tail check's n_classifiers drawn
        # classifiers and, in Monte Carlo mode, the table's batch (an exact
        # table averages the affine layer in closed form and draws none)
        calls, sizes = {"points": 0}, []

        def predict(self, keys, a, c, t, x):
            calls["points"] += len(t)
            return evaluate(self, keys, a, c, t, x)

        def draw(self, rng, trials):
            sizes.append(trials)
            return drawing(self, rng, trials)

        evaluate, drawing = Derandomizer.predict, Derandomizer.draw
        monkeypatch.setattr(Derandomizer, "predict", predict)
        monkeypatch.setattr(Derandomizer, "draw", draw)
        config = config_factory(
            input=str(scored_csv), scheme="ls", k=11, lsh={"kind": "bit_sampling"},
            mode=mode, trials=200, tau=0.4, n_classifiers=5, **extra,
        )
        assert main(["audit", "--config", str(config)]) == 0
        batches = [5] if mode == "exact" else [200, 5]
        assert calls == {"points": len(batches) * 4}
        assert sizes == batches

    @pytest.mark.parametrize("pairs_cap,n_classifiers,passes", [
        (200_000, 5, [6]), (3, 5, [3, 6]), (3, 0, [3]),
    ], ids=["every-pair", "capped-tail", "capped"])
    def test_one_pass_per_pair_set(self, scored_csv, config_factory, monkeypatch, tmp_path,
                                   pairs_cap, n_classifiers, passes):
        # the fairness check, family beta, the tail check's close pairs and
        # the curve read one pass over each pair set: below the cap (6 pairs)
        # the pass over every pair; above it (3 pairs) the capped sample, and
        # every pair too when the tail check reads it
        sizes = []

        def pair_keys(self, data, n_pairs):
            sizes.append(n_pairs)
            return keying(self, data, n_pairs)

        keying = JaccardDistance._pair_keys
        monkeypatch.setattr(JaccardDistance, "_pair_keys", pair_keys)
        settings = dict(input=str(scored_csv), scheme="ls", k=11, lsh={"kind": "minhash"}, metric={"kind": "jaccard"},
                        mode="mc", trials=300, tau=0.5, curve_alphas=[0.0, 1.0], pairs_cap=pairs_cap)
        config = config_factory(**settings, n_classifiers=n_classifiers)
        assert main(["audit", "--config", str(config)]) == 0
        assert sizes == passes
        # the capped classes do not depend on the tail check's pass
        tail = [json.loads((tmp_path / "reports" / "audit.json").read_text())["quantities"]["metric_fairness"],
                (tmp_path / "reports" / "fairness_curve.csv").read_bytes()]
        assert main(["audit", "--config", str(config_factory(**settings))]) == 0
        alone = [json.loads((tmp_path / "reports" / "audit.json").read_text())["quantities"]["metric_fairness"],
                 (tmp_path / "reports" / "fairness_curve.csv").read_bytes()]
        assert tail == alone and ("pair_sample_seed" in tail[0]) == (pairs_cap == 3)

    @staticmethod
    def heavy_modules_after_audit(config):
        # numpy.unique without flags imports numpy.ma (about 15 ms) to test
        # for a mask; numpy.random (about 6 MiB, with hashlib and secrets)
        # has no use, since CountingRng serves every draw; an audit needs
        # neither the adversarial nor the strategic command's module
        modules = ["numpy.ma", "numpy.random", "hashlib", "secrets", "fairderand.adversarial", "fairderand.strategic"]
        code = ("import sys; from fairderand.cli import main; "
                f"assert main(['audit', '--config', {str(config)!r}]) == 0; "
                f"print([m for m in {modules!r} if m in sys.modules])")
        return run_python("-c", code).stdout.splitlines()[-1]

    def test_jaccard_audit_leaves_numpy_ma_unimported(self, scored_csv, config_factory):
        config = config_factory(
            input=str(scored_csv), scheme="ls", k=11, lsh={"kind": "minhash"},
            metric={"kind": "jaccard"}, mode="mc", trials=300, tau=0.5, n_classifiers=5,
            curve_alphas=[0.0, 1.0],
        )
        assert self.heavy_modules_after_audit(config) == "[]"

    def test_capped_exact_audit_leaves_numpy_random_unimported(self, scored_csv, config_factory):
        config = config_factory(
            input=str(scored_csv), scheme="rt", k=11, mode="exact", pairs_cap=3, tau=0.5,
            n_classifiers=5, curve_alphas=[0.0, 1.0],
        )
        assert self.heavy_modules_after_audit(config) == "[]"

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
        for name in ("draw", "predict"):
            monkeypatch.setattr(Derandomizer, name, recording("batch", getattr(Derandomizer, name)))
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


    def test_violation_search_reads_alpha_and_beta_exactly(self, tmp_path, config_factory, capsys):
        # RT at k = 10 splits 1/10 of the family between scores 0.08 and 0.12, at distance 0.04, whose
        # double is 0.04000000000000000083: 1/10 is below 1 * d + 6/100, so audit finds no violation.
        # Read as floats, 0.06 lies below 6/100 and the search certified a violation on this grid.
        data = tmp_path / "two.csv"
        write_dataset(data, [["a", "0"], ["b", "0.04"]], ["id", "feat_0"])
        common = dict(input=str(data), scheme="rt", k=10, alpha=1, beta=0.06,
                      scorer={"kind": "affine", "weights": [1], "bias": 0.08},
                      metric={"kind": "scaled_euclidean", "scale": 1})
        assert main(["audit", "--config", str(config_factory(**common))]) == 0
        audit = json.loads((tmp_path / "reports" / "audit.json").read_text())
        assert audit["quantities"]["metric_fairness"]["fairness_violations"]["value"] == 0
        search = {"construction": "violation_search", "grid_steps": 2, "grid_start": [0], "grid_stop": [0.04]}
        capsys.readouterr()
        assert main(["adversarial", "--config", str(config_factory(**common, adversarial=search))]) == 2
        assert capsys.readouterr().err.startswith("config error: adjacent spacing 0.04 must be below")
        assert not (tmp_path / "reports" / "adversarial.json").exists()


class TestStrategicCommand:
    def test_rows_and_bound_flags(self, scored_csv, config_factory, tmp_path):
        config = config_factory(
            input=str(scored_csv), metric={"kind": "hamming"},
            alpha=2.0, beta=1.0,
        )
        assert main(["strategic", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "reports" / "strategic.json").read_text())
        assert len(report["responses"]) == 4
        assert set(report["responses"][0]) == {"origin", "response", "gain"}
        assert set(report["responses"][0]["gain"]) == {"value", "bound", "bound_source", "satisfied"}
        assert report["all_within_bound"] is True

    def test_mc_with_one_trial_reads_only_means(self, tmp_path):
        # the family means t/k are 0 and 1/2 at k = 2: a moves to b at cost 1/3 and gains 1/6 over a budget of 0;
        # at k = 101 (49/101 and 50/101), and on the scores 0.49 and 0.5, nobody moves
        path, config = tmp_path / "ab.csv", tmp_path / "config.json"
        header = ["id", "feat_0", "feat_1", "feat_2", "score"]
        write_dataset(path, [["a", 0, 0, 0, "0.49"], ["b", 0, 0, 1, "0.5"]], header)
        for scheme, gain in [({"scheme": "rt", "k": 2}, 1 / 6), ({"scheme": "rt", "k": 101}, 0), ({}, 0)]:
            config.write_text(json.dumps({"input": str(path), "out": str(tmp_path / "reports"),
                                          "metric": {"kind": "hamming"}, "alpha": 1, "beta": 0, **scheme}))
            assert main(["strategic", "--config", str(config), "--mode", "mc", "--trials", "1"]) == 0
            report = json.loads((tmp_path / "reports" / "strategic.json").read_text())
            row = report["responses"][0]
            assert (row["origin"], row["response"]) == ("a", "b" if gain else "a"), scheme
            assert (row["gain"]["value"], row["gain"]["bound"], row["gain"]["satisfied"]) == (gain, 0, not gain), scheme
            assert report["all_within_bound"] is (not gain), scheme

    def test_score_equal_to_feature_is_fair_under_float_costs(self, tmp_path):
        # (1, 0)-fair under the Euclidean cost: every move up gains its cost back exactly, though floats
        # make |0.3 - 0.1| 0.19999999999999998; read at its binary value, that move gained 1.7e-17 over a bound of 0
        path, config = tmp_path / "line.csv", tmp_path / "config.json"
        write_dataset(path, [[f"p{i:02d}", str(i / 10), str(i / 10)] for i in range(11)], ["id", "feat_0", "score"])
        config.write_text(json.dumps({"input": str(path), "out": str(tmp_path / "reports"), "alpha": 1, "beta": 0,
                                      "metric": {"kind": "scaled_euclidean", "scale": 1.0}}))
        assert main(["strategic", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "reports" / "strategic.json").read_text())
        assert [(row["origin"], row["gain"]["value"]) for row in report["responses"]] == [
            (row["response"], 0) for row in report["responses"]]
        assert report["all_within_bound"] is True


class TestBoundsCommand:
    def test_bounds_evaluated(self, config_factory, tmp_path):
        config = config_factory(
            bounds=[
                {"name": "aggregate_tail", "alpha": 1, "beta": 0, "tau": 0.05, "delta": 0.25},
                {"name": "bias", "k": 100},
                {"name": "ls_pairwise", "alpha": 1, "beta": 0.1, "d": 0.25, "k": 10, "fx": 0.2, "fy": 0.5},
            ]
        )
        assert main(["bounds", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "reports" / "bounds.json").read_text())
        values = {row["name"]: row["value"] for row in report["bounds"]}
        assert values["aggregate_tail"] == pytest.approx(0.15)
        assert values["bias"] == pytest.approx(0.01)
        # (alpha + 2 * 0.2 * (1 - 0.5)) * d + beta + 2/k
        assert values["ls_pairwise"] == pytest.approx(1.2 * 0.25 + 0.1 + 0.2)

    @pytest.mark.parametrize("bound,message", [
        ({"name": "aggregate_tail", "alpha": 1, "beta": 1e308, "tau": 0.1, "delta": 0.25},
         "bound 'aggregate_tail' overflows a float on these inputs"),
        ({"name": "worst_case_aggregate", "alpha": 1, "beta": 1e308, "tau": 0.1, "delta": 0.25, "epsilon": 0.1},
         "bound 'worst_case_aggregate' overflows a float on these inputs"),
        ({"name": "worst_case_aggregate", "alpha": 1, "beta": 0, "tau": 0.1, "delta": 0.25, "epsilon": 1e308},
         "bound 'worst_case_aggregate' overflows a float on these inputs"),
        ({"name": "ls_pairwise", "alpha": 1, "beta": 0, "d": 0.5, "k": 10, "fx": -1e308, "fy": 0.5},
         "fx must lie in [0, 1], in bound 'ls_pairwise'"),
        ({"name": "ls_pairwise", "alpha": 1, "beta": 0, "d": 0.5, "k": 10, "fx": 0.5, "fy": -1e308},
         "fy must lie in [0, 1], in bound 'ls_pairwise'"),
        ({"name": "ls_pairwise", "alpha": 1, "beta": 0, "d": 0.5, "k": 10, "fx": 1.5, "fy": -2},
         "fx must lie in [0, 1], in bound 'ls_pairwise'"),
        ({"name": "manipulation_gain", "alpha": 10**400, "beta": 0, "cost": 2},
         "bound 'manipulation_gain' overflows a float on these inputs"),
    ], ids=["aggregate_tail-beta", "worst_case_aggregate-beta", "worst_case_aggregate-epsilon",
            "ls_pairwise-fx", "ls_pairwise-fy", "ls_pairwise-out-of-unit", "manipulation_gain-int"])
    def test_overflowing_or_out_of_range_bound_exits_2(self, config_factory, capsys, tmp_path, bound, message):
        # each ended in a JSON error on inf (exit 1), or returned a value for scores outside [0, 1]
        assert main(["bounds", "--config", str(config_factory(bounds=[bound]))]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "reports").exists()

    def test_unknown_bound_exits_2(self, config_factory):
        config = config_factory(bounds=[{"name": "nope"}])
        assert main(["bounds", "--config", str(config)]) == 2


class TestCommandLine:
    FLAGS = ["--seed", "3", "--out", "elsewhere", "--mode", "mc", "--trials", "50", "--pairs-cap", "9"]

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_every_command_takes_the_shared_flags(self, command):
        args = cli.build_parser().parse_args([command, "--config", "c.json", *self.FLAGS])
        assert vars(args) == {"command": command, "config": "c.json", "seed": 3, "out": "elsewhere",
                              "mode": "mc", "trials": 50, "pairs_cap": 9}
        merged, cfg = cli._resolve({"out": "reports", "seed": 1, "trials": 7}, args)
        assert cfg == measure.EstimatorConfig(mode="mc", trials=50, seed=3, pairs_cap=9)
        assert merged["out"] == "elsewhere"

    @pytest.mark.parametrize("argv", [[], ["--config", "c.json"], ["nope", "--config", "c.json"], ["audit"],
                                      ["audit", "--config", "c.json", "--mode", "fast"]])
    def test_malformed_command_line_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: fairderand")

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"{fairderand.__version__}\n"

    def test_in_process_call_leaves_the_collector_unfrozen(self, scored_csv, config_factory):
        frozen = gc.get_freeze_count()
        assert main(["audit", "--config", str(config_factory(input=str(scored_csv)))]) == 0
        assert gc.get_freeze_count() == frozen

    def test_process_entry_freezes_the_import_heap(self, scored_csv, config_factory):
        # main() reads the process's own sys.argv, as the console script does
        config = config_factory(input=str(scored_csv))
        code = ("import gc, sys; from fairderand.cli import main; "
                f"sys.argv = ['fairderand', 'audit', '--config', {str(config)!r}]; "
                "assert main() == 0; print(gc.get_freeze_count())")
        assert int(run_python("-c", code).stdout.splitlines()[-1]) > 0


class TestConfigHandling:
    def test_estimator_defaults_are_the_config_defaults(self, scored_csv, config_factory, tmp_path):
        # a config naming no estimator key echoes EstimatorConfig's defaults
        config = json.loads(config_factory(input=str(scored_csv)).read_text())
        for key in ("seed", "mode"):
            del config[key]
        merged, cfg = cli._resolve(config, cli.build_parser().parse_args(["audit", "--config", "c.json"]))
        assert cfg == measure.EstimatorConfig()
        assert {key: merged[key] for key in ("seed", "mode", "trials", "pairs_cap")} == vars(cfg)

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

    @pytest.mark.parametrize("resolution,code", [(1e-10, 2), (1e-5, 0)], ids=["inf-cell", "finite-cell"])
    def test_grid_cell_beyond_float_range_exits_2(self, tmp_path, config_factory, capsys, resolution, code):
        # 1e300 / 1e-10 is inf as a float, which no grid cell index is; 1e300 / 1e-5 is a finite cell
        path = tmp_path / "far.csv"
        write_dataset(path, [["a", "1e300", "0.2"], ["b", 0, "0.7"]], ["id", "feat_0", "score"])
        config = config_factory(input=str(path), scheme="pi", k=11, metric={"kind": "scaled_euclidean"},
                                bucketer={"kind": "grid", "resolution": resolution})
        assert main(["audit", "--config", str(config)]) == code
        if code:
            message = "config error: bucketer.resolution 1e-10 puts a grid cell beyond the float range"
            assert message in capsys.readouterr().err

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
            cli._write_report({"out": str(tmp_path)}, "audit.json", {"value": math.nan})
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

    @pytest.mark.parametrize(
        "overrides,row,message",
        [
            (dict(scheme="ls", lsh={"kind": "bit_sampling"}), [1, "0.5"], "bit sampling requires 0/1 features"),
            (dict(scheme="ls", lsh={"kind": "minhash"}, metric={"kind": "jaccard"}), [1, "0.5"],
             "set-valued features must be 0/1"),
            (dict(scheme="rt", metric={"kind": "jaccard"}), [1, "0.5"], "set-valued features must be 0/1"),
            (dict(scheme="ls", lsh={"kind": "minhash"}, metric={"kind": "jaccard"}), [0, 0],
             "min-wise hashing is undefined on the empty set"),
        ],
        ids=["bit-sampling", "minhash", "rt-jaccard", "minhash-empty-set"],
    )
    def test_data_outside_a_bit_or_set_family_exits_3(self, tmp_path, config_factory, capsys, overrides, row,
                                                      message):
        # these exited 2, as config errors, though the same configs run on 0/1 data
        path = tmp_path / "half.csv"
        rows = [["a", 1, 0, "0.5"], ["b", 0, 1, "0.2"], ["c", *row, "0.7"]]
        write_dataset(path, rows, ["id", "feat_0", "feat_1", "score"])
        config = config_factory(input=str(path), **overrides)
        assert main(["audit", "--config", str(config)]) == 3
        assert capsys.readouterr().err == f"data error: {message}\n"

    @pytest.mark.parametrize(
        "metric,odd,message",
        [({"kind": "angular"}, "0", "angular distance undefined on the zero vector"),
         ({"kind": "jaccard"}, "0.5", "set-valued features must be 0/1")],
        ids=["angular-zero-row", "jaccard-half-entry"],
    )
    def test_capped_audit_checks_every_point(self, tmp_path, config_factory, capsys, metric, odd, message):
        # these passed (exit 0, no violations) whenever no sampled pair held the odd point
        rng = random.Random(1)
        dataset = random_binary_dataset(rng, 40, 6)
        path = tmp_path / "data.csv"
        save_dataset(path, dataset, random_scorer(rng, dataset, 1000))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(",".join(["odd", odd, *["0"] * 5, "0.5"]) + "\n")
        config = config_factory(input=str(path), metric=metric, pairs_cap=5)
        assert main(["audit", "--config", str(config)]) == 3
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not (tmp_path / "reports").exists()

    def test_single_point_audit_checks_the_metric_width(self, tmp_path, config_factory, capsys):
        # a pass over no pair checks the point too: this was "no pairs to check" (exit 2)
        path = tmp_path / "one.csv"
        write_dataset(path, [["a", 1, 0, "0.5"]], ["id", "feat_0", "feat_1", "score"])
        config = config_factory(input=str(path), metric={"kind": "hamming", "n": 3})
        assert main(["audit", "--config", str(config)]) == 3
        assert capsys.readouterr().err == "data error: expected dimension 3, got 2\n"

    def test_angular_metric_on_a_zero_row_exits_3(self, tmp_path, config_factory, capsys):
        path = tmp_path / "zero.csv"
        write_dataset(path, [["a", 0, 0, "0.5"], ["b", 1, 0, "0.2"]], ["id", "feat_0", "feat_1", "score"])
        config = config_factory(input=str(path), metric={"kind": "angular"})
        assert main(["audit", "--config", str(config)]) == 3
        assert "data error: angular distance undefined on the zero vector" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides,message", [
        (dict(scheme="rt"),
         "no score for point 'g00000': a tabular scorer, such as a dataset's score column, scores only the ids in its "
         "table"),
        (dict(scheme="pi", bucketer={"kind": "grid", "resolution": 1.0},
              scorer={"kind": "affine", "weights": [0.3, 0.3, 0.3], "bias": 0.0}),
         "no hash value for bucket (0, 0, 0): the family embeds only the buckets it was built on (for Pi, those of "
         "the input dataset's points)"),
    ], ids=["rt-score-column", "pi-grid-outside-the-data"])
    def test_unknown_point_or_bucket_names_it(self, scored_csv, config_factory, capsys, tmp_path, overrides, message):
        # these printed only the key's repr: "data error: 'g00000'" and "data error: (0, 0, 0)"
        config = config_factory(input=str(scored_csv), k=11, metric={"kind": "scaled_euclidean"},
                                adversarial={"construction": "violation_search", "grid_steps": 3}, **overrides)
        assert main(["adversarial", "--config", str(config)]) == 3
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not (tmp_path / "reports").exists()

    @staticmethod
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from TestDataErrors.subclasses(sub)

    def test_every_error_class_falls_under_exactly_one_exit_code_base(self):
        bases = (InvalidParameterError, DataError, NotEnumerableError)
        for error in self.subclasses(FairderandError):
            assert sum(issubclass(error, base) for base in bases) == 1, error.__name__

    def test_every_error_class_has_an_exit_code(self, scored_csv, config_factory, capsys, monkeypatch):
        config = config_factory(input=str(scored_csv))
        errors = set(self.subclasses(FairderandError))
        assert {DimensionMismatchError, ZeroVectorError, UnknownBucketError, GridTooCoarseError} <= errors
        for error in sorted(errors, key=lambda cls: cls.__name__):
            def fail(config, cfg, error=error):
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


class TestEstimatorKeys:
    """The estimator keys are shared: every command rejects what audit
    rejects, whether or not it reads them."""

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @pytest.mark.parametrize(
        "key,value,message",
        [("mode", "x", "unknown estimator mode 'x'"), ("trials", 0, "trials must be at least 1"),
         ("pairs_cap", 0, "pairs_cap must be at least 1")],
        ids=["mode", "trials", "pairs_cap"],
    )
    def test_bad_value_exits_2(self, scored_csv, config_factory, capsys, command, key, value, message):
        base = dict(input=str(scored_csv), k=11, bounds=[{"name": "bias", "k": 4}])
        assert main([command, "--config", str(config_factory(**base))]) == 0
        capsys.readouterr()
        assert main([command, "--config", str(config_factory(**base, **{key: value}))]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestExitCodeContract:
    """Each of these inputs ended in a traceback (exit 1); now each ends
    with its exit code and a one-line message."""

    @staticmethod
    def run(command, config, capsys, *flags):
        code = main([command, "--config", str(config), *flags])
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        return code, err.rstrip("\n")

    @pytest.mark.parametrize(
        "overrides,message",
        [
            (dict(scorer={"kind": "affine"}), "scorer.weights must be a list of numbers"),
            (dict(scorer={"kind": "affine", "weights": "ab"}), "scorer.weights must be a list of numbers"),
            (dict(scorer={"kind": "affine", "weights": [1, 0, 0], "bias": "x"}), "scorer.bias must be a number"),
            (dict(scorer=3), "scorer must be an object"),
            (dict(scorer={"kind": "constant", "value": "nan"}), "cannot interpret 'nan' as a score"),
            (dict(out=3), "out must be a string"),
            (dict(input=1), "input must be a string"),
            (dict(input=None), "input must be a string"),
        ],
        ids=["affine-no-weights", "weights-str", "bias-str", "scorer-int", "constant-nan", "out-int",
             "input-int", "input-null"],
    )
    def test_malformed_entry_exits_2(self, scored_csv, config_factory, capsys, overrides, message):
        config = config_factory(**{"input": str(scored_csv), **overrides})
        assert self.run("audit", config, capsys) == (2, f"config error: {message}")

    def test_missing_input_exits_2(self, config_factory, capsys):
        expected = (2, "config error: config must name an input dataset")
        assert self.run("audit", config_factory(), capsys) == expected

    def test_bounds_entry_not_an_object_exits_2(self, config_factory, capsys):
        config = config_factory(bounds=[3])
        expected = (2, "config error: each bounds entry must be an object with a 'name'")
        assert self.run("bounds", config, capsys) == expected

    @pytest.mark.parametrize(
        "command,overrides",
        [
            ("derandomize", dict(unused=math.nan)),
            ("audit", dict(scheme="pi", bucketer={"kind": "grid", "resolution": math.nan})),
            ("audit", dict(metric={"kind": "scaled_euclidean", "scale": math.nan})),
            ("audit", dict(alpha=math.inf)),
            ("audit", dict(beta=-math.inf)),
        ],
        ids=["unused-key", "resolution", "scale", "alpha-inf", "beta-minus-inf"],
    )
    def test_non_finite_number_anywhere_exits_2(self, scored_csv, config_factory, capsys, command, overrides):
        config = config_factory(input=str(scored_csv), **overrides)
        code, err = self.run(command, config, capsys)
        assert code == 2 and err.startswith("config error: config is not valid JSON: ")
        assert err.endswith(" is not a finite number")

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"scheme": "rt", "alpha": 1e999}', "config is not valid JSON: 1e999 is not a finite number"),
            ("[1]", "config must be a JSON object"),
        ],
        ids=["overflow", "not-an-object"],
    )
    def test_unreadable_config_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert self.run("audit", path, capsys) == (2, f"config error: {message}")

    def test_config_directory_exits_2(self, tmp_path, capsys):
        expected = (2, f"config error: cannot read config file {tmp_path}: Is a directory")
        assert self.run("audit", tmp_path, capsys) == expected

    def test_input_directory_exits_3(self, tmp_path, config_factory, capsys):
        code, err = self.run("audit", config_factory(input=str(tmp_path)), capsys)
        assert code == 3 and err.startswith("data error: [Errno 21] Is a directory")

    def test_input_not_utf8_exits_3(self, tmp_path, config_factory, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"id,feat_0,score\n\xe9,1,0.5\n")
        code, err = self.run("audit", config_factory(input=str(path)), capsys)
        assert code == 3 and err.startswith(f"data error: {path}: 'utf-8' codec can't decode byte 0xe9")

    def test_mc_audit_with_one_trial_exits_2(self, scored_csv, config_factory, capsys, tmp_path):
        # the variance with ddof=1 was nan, and the report write failed on it
        config = config_factory(input=str(scored_csv))
        code, err = self.run("audit", config, capsys, "--mode", "mc", "--trials", "1")
        assert code == 2 and err.startswith("config error: an mc audit needs at least 2 trials")
        assert not (tmp_path / "reports").exists()
        assert main(["audit", "--config", str(config), "--mode", "mc", "--trials", "2"]) == 0


class TestExactAlphaBeta:
    def test_decimal_alpha_beta_are_exact(self, tmp_path, config_factory):
        # the RT gap at k = 80 is 67/80 = 0.8375 = 1.1 * 1/8 + 0.7 exactly; float
        # arithmetic made it one violation with excess 1.1e-16
        path = tmp_path / "two.csv"
        header = ["id", *(f"feat_{i}" for i in range(8)), "score"]
        write_dataset(path, [["x", *[0] * 8, "0"], ["y", 1, *[0] * 7, "0.8375"]], header)
        config = config_factory(input=str(path), k=80, alpha=1.1, beta=0.7)
        assert main(["audit", "--config", str(config)]) == 0
        fairness = json.loads((tmp_path / "reports" / "audit.json").read_text())["quantities"]["metric_fairness"]
        assert fairness["fairness_violations"]["value"] == 0
        assert fairness["fairness_violations"]["satisfied"] is True
        assert fairness["worst_excess"]["value"] == 0

    @pytest.mark.parametrize("scheme", [{"scheme": "rt"}, {"scheme": "pi", "bucketer": {"kind": "identity"}},
                                        {"scheme": "ls", "lsh": {"kind": "bit_sampling"}}], ids=["rt", "pi", "ls"])
    @pytest.mark.parametrize("params,message", [({"alpha": 0.5}, "alpha must be at least 1"),
                                                ({"alpha": -2}, "alpha must be at least 1"),
                                                ({"beta": -1}, "beta must be non-negative")],
                             ids=["alpha-half", "alpha-negative", "beta-negative"])
    def test_every_scheme_rejects_alpha_below_1_and_negative_beta(self, scored_csv, config_factory, capsys,
                                                                  tmp_path, scheme, params, message):
        # RT and Pi audits exited 0 with vacuous violations; only LS rejected these
        config = config_factory(input=str(scored_csv), k=11, **scheme, **params)
        assert main(["audit", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "reports").exists()


MALFORMED = [None, True, "x", [1], {"a": 1}, -1, 1.5, math.nan]
AFFINE = {"scorer": {"kind": "affine", "weights": [0.1, 0.2, 0.3], "bias": 0.1}}
PI = {"scheme": "pi", "bucketer": {"kind": "grid", "resolution": 0.5}}
# every key derandomize, audit and strategic read, with what makes them read it
READ_KEYS = {
    "input": {}, "out": {}, "seed": {}, "mode": {}, "trials": {}, "pairs_cap": {}, "scheme": {}, "k": {},
    "alpha": {}, "beta": {}, "tau": {}, "delta": {}, "n_classifiers": {}, "curve_alphas": {},
    "metric": {}, "metric.kind": {}, "metric.n": {}, "metric.scale": {"metric": {"kind": "scaled_euclidean"}},
    "scorer": AFFINE, "scorer.kind": AFFINE, "scorer.weights": AFFINE, "scorer.bias": AFFINE,
    "scorer.value": {"scorer": {"kind": "constant", "value": "0.5"}},
    "bucketer": PI, "bucketer.kind": PI, "bucketer.resolution": PI,
    "lsh": {}, "lsh.kind": {}, "lsh.n": {}, "lsh.universe_size": {"lsh": {"kind": "minhash"}},
    "lsh.dim": {"lsh": {"kind": "simhash"}, "mode": "mc"},
}


class TestMalformedConfigGrid:
    @pytest.mark.parametrize("command", ["derandomize", "audit", "strategic"])
    @pytest.mark.parametrize("key", list(READ_KEYS))
    def test_never_raises(self, scored_csv, tmp_path, monkeypatch, capsys, command, key):
        monkeypatch.chdir(tmp_path)  # "out": "x" writes to ./x
        for value in MALFORMED:
            config = {
                "input": str(scored_csv), "out": "reports", "scheme": "ls", "k": 5, "seed": 7, "mode": "exact",
                "trials": 20, "lsh": {"kind": "bit_sampling"}, "metric": {"kind": "hamming"}, "tau": 0.5,
                "delta": 0.25, "n_classifiers": 2, "curve_alphas": [1], **copy.deepcopy(READ_KEYS[key]),
            }
            section, _, name = key.rpartition(".")
            (config.setdefault(section, {}) if section else config)[name] = value
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            code = main([command, "--config", str(path)])
            err = capsys.readouterr().err
            assert code in (0, 2, 3), (key, value)
            if code:
                assert err.count("\n") == 1 and err.startswith(("config error: ", "data error: ")), (key, value)

    @pytest.mark.parametrize("alphas", [[-1, 0], [0, -0.5], [-1e-9]])
    def test_negative_curve_alphas_exit_2(self, scored_csv, config_factory, capsys, tmp_path, alphas):
        # no fairness notion has a slope below 0
        config = config_factory(input=str(scored_csv), curve_alphas=alphas)
        assert main(["audit", "--config", str(config)]) == 2
        assert capsys.readouterr().err == "config error: curve_alphas must be non-negative\n"
        assert not (tmp_path / "reports").exists()
