import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from assortplan.catalog import Catalog, Product, demo_catalog
from assortplan.cli import (
    _json_indented,
    main,
    parse_omega_spec,
    parse_prior_spec,
    parse_span_spec,
)
from assortplan.revenue import AttentionSpanDist
from helpers import random_catalog


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sim_config(tmp_path, **overrides):
    doc = {
        "horizon": 200,
        "seed": 42,
        "span": "y=3",
        "prior": {"mean": 0.0, "prior_var": 1.0, "noise_var": 1.0},
        "slate": ["A", "B", "F"],
        "freeze_beliefs": True,
    }
    doc.update(overrides)
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestSpecParsers:
    def test_deterministic_span(self):
        assert parse_span_spec("y=3") == AttentionSpanDist.deterministic(3)

    def test_pmf_span(self):
        dist = parse_span_spec("pmf=1:0.5,3:0.5")
        assert dist.pmf == ((1, 0.5), (3, 0.5))

    @pytest.mark.parametrize("spec", ["3", "y:3", "pmf=1-0.5"])
    def test_bad_span_spec(self, spec):
        with pytest.raises(ValueError):
            parse_span_spec(spec)

    def test_omega_spec(self):
        assert parse_omega_spec("uniform:1.0") == 1.0

    @pytest.mark.parametrize("spec", ["1.0", "uniform:0", "uniform:1.5"])
    def test_bad_omega_spec(self, spec):
        with pytest.raises(ValueError):
            parse_omega_spec(spec)

    def test_prior_spec(self):
        prior = parse_prior_spec("2.0,0.5,1.0")
        assert (prior.prior_mean, prior.prior_var, prior.noise_var) == (2.0, 0.5, 1.0)


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 5e-324])
    | st.text(alphabet=st.characters(codec="utf-8"), max_size=6)
    | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é中😀", "\ud800", "</script>"])
)
KEYS = st.text(max_size=4) | st.sampled_from(["", '"', "é", "\n"])
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.tuples(inner, inner)
    | st.dictionaries(KEYS, inner, max_size=5),
    max_leaves=30,
)


@given(DOCUMENTS)
def test_indented_json_matches_json_dumps(document):
    assert _json_indented(document) == json.dumps(document, indent=2)


def test_indented_json_of_empty_and_long_containers():
    document = {"a": [], "b": {}, "c": [[]], "d": list(range(1000)), "e": {"x": [{}]}}
    assert _json_indented(document) == json.dumps(document, indent=2)
    assert _json_indented([]) == "[]" and _json_indented({}) == "{}"


class TestRank:
    def test_demo_top_three(self, capsys, demo_path):
        code, out, _ = run(capsys, "rank", "--catalog", str(demo_path), "--slots", "3")
        assert code == 0
        assert out.splitlines()[0] == "A B F"

    def test_trace_flag_prints_iterations(self, capsys, demo_path):
        code, out, _ = run(
            capsys, "rank", "--catalog", str(demo_path), "--slots", "3", "--trace"
        )
        assert code == 0
        assert "iteration 1: stage1_threshold 13957.2" in out
        assert "stage1_order F,A,B" in out

    def test_price_desc_policy(self, capsys, demo_path):
        code, out, _ = run(
            capsys, "rank", "--catalog", str(demo_path), "--slots", "3",
            "--policy", "price-desc",
        )
        assert code == 0
        assert out.splitlines()[0] == "A B J"

    def test_missing_catalog_file(self, capsys, tmp_path):
        path = tmp_path / "nope.json"
        code, out, err = run(capsys, "rank", "--catalog", str(path), "--slots", "3")
        assert code == 2
        assert out == ""
        assert err == f"error: No such file or directory: {path}\n"

    def test_malformed_catalog(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken", encoding="utf-8")
        code, _, err = run(capsys, "rank", "--catalog", str(path), "--slots", "3")
        assert code == 2
        assert "malformed" in err

    # Valid catalogs whose threshold sums fail in math.fsum: part-way overflow
    # of the stage-2 price sum, and inf - inf among stage 1's rating * reviews.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "rows, message",
        [
            (
                [("X", 1e308, 10, 4.0), ("Y", 1e308, 10, 4.0), ("Z", 2.0, 5, 3.0)],
                "stage-2 threshold sum: intermediate overflow in fsum",
            ),
            (
                [("X", 1.0, 3, 1e308), ("Y", 2.0, 5, -1e308), ("Z", 3.0, 50, 3.0)],
                "stage-1 threshold sum: -inf + inf in fsum",
            ),
        ],
    )
    def test_overflowing_threshold_sum_is_one_error_line(
        self, capsys, write_catalog, rows, message
    ):
        path = write_catalog(
            Catalog(tuple(Product(id=i, price=p, review_count=n, avg_rating=r) for i, p, n, r in rows))
        )
        code, out, err = run(capsys, "rank", "--catalog", str(path), "--slots", "3", "--trace")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_structured_format(self, capsys, demo_path):
        code, out, _ = run(
            capsys, "rank", "--catalog", str(demo_path), "--slots", "3",
            "--format", "structured", "--trace",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ranking"] == ["A", "B", "F"]
        assert doc["manifest"]["command"] == "rank"
        assert doc["trace"][0]["stage1_order"] == ["F", "A", "B"]


class TestExpectedRevenue:
    def test_quality_slate_value(self, capsys, demo_path):
        code, out, _ = run(
            capsys, "expected-revenue", "--catalog", str(demo_path),
            "--slate", "A,B,F", "--span", "y=3", "--omega", "uniform:1.0",
        )
        assert code == 0
        assert "expected_revenue 628.982" in out
        assert "slot 3 F purchase_prob 0.005625" in out

    def test_substituted_slate_value(self, capsys, demo_path):
        code, out, _ = run(
            capsys, "expected-revenue", "--catalog", str(demo_path),
            "--slate", "A,D,F", "--span", "y=3", "--omega", "uniform:1.0",
        )
        assert code == 0
        assert "expected_revenue 608.786" in out

    def test_single_slot(self, capsys, demo_path):
        code, out, _ = run(
            capsys, "expected-revenue", "--catalog", str(demo_path),
            "--slate", "A", "--span", "y=1", "--omega", "uniform:1.0",
        )
        assert code == 0
        assert "expected_revenue 597.55" in out

    def test_pmf_span_mixture(self, capsys, demo_path):
        code, out, _ = run(
            capsys, "expected-revenue", "--catalog", str(demo_path),
            "--slate", "A,B,F", "--span", "pmf=1:0.5,3:0.5", "--omega", "uniform:1.0",
        )
        assert code == 0
        assert "expected_revenue 613.266" in out

    def test_unknown_id(self, capsys, demo_path):
        code, _, err = run(
            capsys, "expected-revenue", "--catalog", str(demo_path),
            "--slate", "A,Z", "--span", "y=2",
        )
        assert code == 2
        assert "unknown product id" in err


class TestOptimize:
    def test_compare_reports_nonnegative_gap(self, capsys, write_catalog):
        demo = demo_catalog()
        small = Catalog(tuple(p for p in demo.products if p.id in {"A", "B", "F"}))
        path = write_catalog(small)
        code, out, _ = run(
            capsys, "optimize", "--catalog", str(path), "--slots", "3",
            "--span", "y=3", "--omega", "uniform:1.0", "--compare", "A,B,F",
        )
        assert code == 0
        lines = dict(line.split(" ", 1) for line in out.splitlines() if " " in line)
        assert lines["slate"] == "B A F"
        assert float(lines["gap"]) >= 0
        assert lines["enumerated"] == "15"

    def test_single_product_catalog(self, capsys, write_catalog):
        demo = demo_catalog()
        path = write_catalog(Catalog((demo.get("A"),)))
        code, out, _ = run(
            capsys, "optimize", "--catalog", str(path), "--slots", "2", "--span", "y=1"
        )
        assert code == 0
        assert out.splitlines()[0] == "slate A"

    def test_guard_exit_code(self, capsys, write_catalog):
        rng = np.random.default_rng(71)
        path = write_catalog(random_catalog(rng, size=13))
        code, _, err = run(
            capsys, "optimize", "--catalog", str(path), "--slots", "3", "--span", "y=3"
        )
        assert code == 3
        assert "enumeration guard" in err
        assert "1885" in err  # 13 + 13*12 + 13*12*11 ordered slates


class TestAudit:
    def test_substituted_slate_exits_one(self, capsys, demo_path):
        code, out, _ = run(
            capsys, "audit", "--catalog", str(demo_path),
            "--displayed", "A,D,F", "--span", "y=3", "--omega", "uniform:1.0",
        )
        assert code == 1
        assert "below-stage1-threshold" in out
        assert "revenue-dominated-swap" in out
        assert "-20.1956" in out

    def test_engine_output_exits_zero(self, capsys, demo_path):
        code, out, _ = run(
            capsys, "audit", "--catalog", str(demo_path),
            "--displayed", "A,B,F", "--span", "y=3", "--omega", "uniform:1.0",
        )
        assert code == 0
        assert "findings 0" in out

    def test_unknown_displayed_id(self, capsys, demo_path):
        code, _, err = run(
            capsys, "audit", "--catalog", str(demo_path),
            "--displayed", "A,Z", "--span", "y=3",
        )
        assert code == 2
        assert "unknown product id" in err


class TestSimulate:
    def test_deterministic_outputs(self, capsys, demo_path, tmp_path):
        config = sim_config(tmp_path)
        out_a, out_b = tmp_path / "runA", tmp_path / "runB"
        code_a, text_a, _ = run(
            capsys, "simulate", "--catalog", str(demo_path),
            "--config", str(config), "--out", str(out_a),
        )
        code_b, text_b, _ = run(
            capsys, "simulate", "--catalog", str(demo_path),
            "--config", str(config), "--out", str(out_b),
        )
        assert code_a == code_b == 0
        assert (out_a / "trace.tsv").read_bytes() == (out_b / "trace.tsv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
        assert "purchase_rate" in text_a
        summary = json.loads((out_a / "summary.json").read_text())
        assert summary["manifest"]["command"] == "simulate"
        assert summary["purchase_count"] > 0

    def test_seed_override_changes_trace(self, capsys, demo_path, tmp_path):
        config = sim_config(tmp_path)
        out_a, out_b = tmp_path / "runA", tmp_path / "runB"
        run(capsys, "simulate", "--catalog", str(demo_path), "--config", str(config),
            "--out", str(out_a))
        run(capsys, "simulate", "--catalog", str(demo_path), "--config", str(config),
            "--out", str(out_b), "--seed", "7")
        assert (out_a / "trace.tsv").read_bytes() != (out_b / "trace.tsv").read_bytes()

    def test_zero_horizon_rejected(self, capsys, demo_path, tmp_path):
        config = sim_config(tmp_path, horizon=0)
        code, _, err = run(
            capsys, "simulate", "--catalog", str(demo_path),
            "--config", str(config), "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert "horizon" in err

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"slate": None, "rerank_every": "5", "slot_count": 3}, "rerank_every"),
            ({"clamp_ratings": 5}, "clamp_ratings"),
            ({"horizon": 10.9}, "horizon"),
            ({"slate": "ABF"}, "slate"),
            ({"freeze_beliefs": "no"}, "freeze_beliefs"),
            ({"slate": None, "rerank_every": 5, "slot_count": 3.5}, "slot_count"),
        ],
    )
    def test_mistyped_config_value_rejected(self, capsys, demo_path, tmp_path, overrides, key):
        config = sim_config(tmp_path, **overrides)
        code, out, err = run(
            capsys, "simulate", "--catalog", str(demo_path),
            "--config", str(config), "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(key) in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, capsys, demo_path, tmp_path):
        path = tmp_path / "nope.json"
        code, out, err = run(
            capsys, "simulate", "--catalog", str(demo_path),
            "--config", str(path), "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert out == ""
        assert err == f"error: No such file or directory: {path}\n"
        assert not (tmp_path / "out").exists()

    def test_review_count_overflow_before_rerank_names_product(self, capsys, tmp_path):
        # X (demand 0.999) is bought by the first customer, so its count passes
        # 2**63 - 1 before the second re-rank, which needs it in an int64 column.
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"products": [
            {"id": "X", "price": 1.0, "reviews": 2**63 - 1, "avg_rating": 3.0,
             "lambda": 0.999, "true_quality": 3.0, "rating_noise": 0.5},
            {"id": "Y", "price": 1.0, "reviews": 5, "avg_rating": 2.0, "lambda": 0.5},
        ]}), encoding="utf-8")
        config = sim_config(
            tmp_path, slate=None, rerank_every=2, slot_count=1, horizon=3,
            span="y=1", freeze_beliefs=False,
        )
        code, out, err = run(
            capsys, "simulate", "--catalog", str(path),
            "--config", str(config), "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: product 'X': simulated review count {2**63} exceeds the "
            f"re-ranking limit of {2**63 - 1}\n"
        )

    def test_missing_config_key_rejected(self, capsys, demo_path, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"horizon": 5}), encoding="utf-8")
        code, _, err = run(
            capsys, "simulate", "--catalog", str(demo_path),
            "--config", str(path), "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert "missing required key" in err


class TestNonFiniteInput:
    OPTIMIZE = ("optimize", "--slots", "3", "--span", "y=3")

    @pytest.mark.parametrize(
        "argv",
        [
            (*OPTIMIZE[:3], "--span", "pmf=1:nan"),
            (*OPTIMIZE[:3], "--span", "pmf=2:1,3:nan"),
            (*OPTIMIZE, "--cost-slope", "nan"),
            (*OPTIMIZE, "--cost-slope", "inf"),
            (*OPTIMIZE, "--prior", "nan,1,1"),
            (*OPTIMIZE, "--prior", "3,inf,1"),
            (*OPTIMIZE, "--prior", "3,1,nan"),
            ("expected-revenue", "--slate", "A,B", "--span", "pmf=1:nan,2:1"),
            ("audit", "--displayed", "A,B,F", "--span", "y=3", "--cost-slope", "nan"),
        ],
    )
    def test_non_finite_flag_rejected(self, capsys, demo_path, argv):
        code, out, err = run(capsys, argv[0], "--catalog", str(demo_path), *argv[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"span": "pmf=1:nan,3:1"},
            {"cost_slope": float("nan")},
            {"prior": {"mean": float("nan"), "prior_var": 1.0, "noise_var": 1.0}},
            {"prior": {"mean": 0.0, "prior_var": float("inf"), "noise_var": 1.0}},
        ],
    )
    def test_non_finite_config_rejected(self, capsys, demo_path, tmp_path, overrides):
        config = sim_config(tmp_path, **overrides)
        code, out, err = run(
            capsys, "simulate", "--catalog", str(demo_path),
            "--config", str(config), "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_repeated_span_flag_rejected(self, capsys, demo_path):
        spec = "pmf=1:0.5,2:0.5,1:0.5"
        code, out, err = run(
            capsys, "expected-revenue", "--catalog", str(demo_path), "--slate", "A,B",
            "--span", spec,
        )
        assert (code, out) == (2, "")
        assert err == f"error: repeated span 1 in span spec {spec!r}\n"

    def test_repeated_span_config_rejected(self, capsys, demo_path, tmp_path):
        config = sim_config(tmp_path, span="pmf=3:0.5,2:0.25,03:0.25")
        code, out, err = run(
            capsys, "simulate", "--catalog", str(demo_path),
            "--config", str(config), "--out", str(tmp_path / "out"),
        )
        assert (code, out) == (2, "")
        assert err == "error: repeated span 3 in span spec 'pmf=3:0.5,2:0.25,03:0.25'\n"
        assert not (tmp_path / "out").exists()

    def test_non_finite_catalog_price_rejected(self, capsys, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(
            '{"products": [{"id": "A", "price": NaN, "reviews": 1, "avg_rating": 2.0, '
            '"lambda": 0.5}]}',
            encoding="utf-8",
        )
        code, out, err = run(
            capsys, "optimize", "--catalog", str(path), "--slots", "1", "--span", "y=1"
        )
        assert code == 2
        assert out == ""
        assert err == "error: product 'A': price must be a finite number, got nan\n"


class TestManifest:
    def test_digest_tracks_catalog_bytes(self, capsys, demo_path, write_catalog):
        def manifest_of(path):
            _, out, _ = run(capsys, "rank", "--catalog", str(path), "--slots", "3",
                            "--format", "structured")
            return json.loads(out)["manifest"]

        first = manifest_of(demo_path)
        again = manifest_of(demo_path)
        assert first["input_digest"] == again["input_digest"]

        demo = demo_catalog()
        other = write_catalog(Catalog(demo.products[:9]), name="other.json")
        assert manifest_of(other)["input_digest"] != first["input_digest"]

    def test_text_report_embeds_manifest(self, capsys, demo_path):
        _, out, _ = run(capsys, "rank", "--catalog", str(demo_path), "--slots", "3")
        manifest_line = [l for l in out.splitlines() if l.startswith("# manifest ")]
        assert len(manifest_line) == 1
        doc = json.loads(manifest_line[0].removeprefix("# manifest "))
        assert doc["command"] == "rank"
        assert doc["version"]
