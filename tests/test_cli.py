import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference_simulator as ref
from assortplan.catalog import (
    BeliefPrior,
    Catalog,
    CatalogColumns,
    Product,
    demo_catalog,
    serialize_catalog,
)
from assortplan.cli import (
    RunManifest,
    _json_indented,
    _summary_json,
    main,
    parse_omega_spec,
    parse_prior_spec,
    parse_span_spec,
)
from assortplan.demand import ReviewState, posterior_mean
from assortplan.revenue import AttentionSpanDist
from assortplan.simulator import SimTrace, count_column
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


SUMMARY_IDS = st.text(alphabet=st.characters(codec="utf-8"), max_size=4) | st.sampled_from(
    ['"', "\\", "a,b", "\n", "é中😀", "\ud800", "\x00"]
)
SUMMARY_MEANS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308]
)
SUMMARY_COUNTS = st.integers(0, 2**63 + 5) | st.sampled_from([2**63 - 1, 2**63, 2**64, 10**25])


@st.composite
def summary_traces(draw) -> SimTrace:
    """A trace whose review columns hold any ids, means and counts."""
    ids = draw(st.lists(SUMMARY_IDS, min_size=1, max_size=6, unique=True))
    n = len(ids)
    columns = CatalogColumns.from_products(
        [
            Product(id=pid, price=draw(st.floats(0, 1e3)), review_count=0, avg_rating=0.0,
                    revenue_share=draw(st.floats(0.05, 1.0)))
            for pid in ids
        ]
    )
    purchased = draw(st.lists(st.integers(-1, n - 1), min_size=1, max_size=8))
    horizon = len(purchased)
    return SimTrace(
        spans=(1,), span_index=np.zeros(horizon, dtype=np.intp),
        viewed=np.ones(horizon, dtype=np.int64), purchased=np.array(purchased, dtype=np.intp),
        rated=[], ratings=[], post_counts=[], post_means=[],
        review_counts=count_column(draw(st.lists(SUMMARY_COUNTS, min_size=n, max_size=n))),
        review_means=np.array(draw(st.lists(SUMMARY_MEANS, min_size=n, max_size=n))),
        prior=BeliefPrior(draw(st.floats(-5, 5)), draw(st.floats(0.1, 10)), 1.0),
        columns=columns,
    )


@given(summary_traces(), SUMMARY_IDS)
def test_summary_writer_matches_json_dumps(trace, config_path):
    manifest = RunManifest("simulate", {"config_path": config_path, "seed": 2**64 - 1}, "0f", "1")
    expected = json.dumps({"manifest": manifest.to_dict(), **ref.summary_document(trace)}, indent=2)
    assert _summary_json(manifest, trace.summary) + "\n" == expected + "\n"
    # Each posterior mean has the bits of the scalar form, past int64 too.
    scalar = [posterior_mean(trace.prior, s) for s in trace.final_states.values()]
    assert list(map(repr, trace.summary.posterior_means.values())) == list(
        map(repr, [dict(zip(trace.columns.ids, scalar))[pid] for pid in trace.summary.ids])
    )


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

    def test_prices_in_the_tens_of_millions(self, capsys, write_catalog):
        # The self-check's two forms differ by a few ulps here, well over
        # 1e-10 absolute; a relative bound accepts them.
        rows = [("A", 50255777.02, 0.34), ("B", 38364517.06, 0.38), ("C", 75083198.43, 0.4)]
        catalog = Catalog(Product(pid, p, 1, 4.0, demand_override=lam) for pid, p, lam in rows)
        code, out, err = run(
            capsys, "expected-revenue", "--catalog", str(write_catalog(catalog)),
            "--slate", "A,B,C", "--span", "y=3",
        )
        assert (code, err) == (0, "")
        assert "expected_revenue 3.89984e+07" in out

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

    def test_live_review_count_past_int64_keeps_summary_bytes(self, capsys, tmp_path):
        # A fixed slate never re-ranks, so X's count may pass 2**63 - 1: it is
        # a Python int in the trace and in summary.json, as it always was.
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"products": [
            {"id": "X", "price": 1.0, "reviews": 2**63 - 1, "avg_rating": 3.0,
             "lambda": 0.999, "true_quality": 3.0, "rating_noise": 0.5},
            {"id": "Y", "price": 1.0, "reviews": 5, "avg_rating": 2.0, "lambda": 0.5},
        ]}), encoding="utf-8")
        config = sim_config(tmp_path, slate=["X"], horizon=1, seed=3, span="y=1",
                            freeze_beliefs=False)
        out = tmp_path / "out"
        code, _, err = run(
            capsys, "simulate", "--catalog", str(path), "--config", str(config), "--out", str(out)
        )
        assert (code, err) == (0, "")
        assert (out / "trace.tsv").read_text() == (
            "t\tspan\tviewed\tpurchased\trating\tpost_reviews\tpost_avg_rating\n"
            "1\t1\t1\tX\t1.9793316777081646\t9223372036854775808\t3.0\n"
        )
        summary = (out / "summary.json").read_text()
        assert summary[summary.index('  "gross_revenue"'):] == """  "gross_revenue": 1.0,
  "platform_revenue": 1.0,
  "purchase_count": 1,
  "purchase_rate": 1.0,
  "per_product_purchases": {
    "X": 1
  },
  "final_states": {
    "X": {
      "reviews": 9223372036854775808,
      "avg_rating": 3.0
    },
    "Y": {
      "reviews": 5,
      "avg_rating": 2.0
    }
  },
  "posterior_means": {
    "X": 3.0,
    "Y": 1.6666666666666667
  }
}
"""

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_simulate_builds_no_review_state(self, capsys, tmp_path, monkeypatch, fmt):
        # Review states stay columns from the run to summary.json: no
        # ReviewState is built, and SimTrace.final_states is never read.
        built = []
        init = ReviewState.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def unread(trace):
            raise AssertionError("SimTrace.final_states read")

        monkeypatch.setattr(ReviewState, "__init__", counting_init)
        monkeypatch.setattr(SimTrace, "final_states", property(unread))
        rated = Catalog(
            Product(id=p.id, price=1.0, review_count=p.review_count, avg_rating=p.avg_rating,
                    true_quality=p.avg_rating, rating_noise=0.5)
            for p in demo_catalog().products
        )
        path = tmp_path / "rated.json"
        path.write_text(serialize_catalog(rated), encoding="utf-8")
        displays = [
            dict(freeze_beliefs=True),
            dict(freeze_beliefs=True, slate=None, rerank_every=4, slot_count=3),
            dict(freeze_beliefs=False, slate=None, rerank_every=3, slot_count=4),
        ]
        for i, display in enumerate(displays):
            config = sim_config(tmp_path, prior={"mean": 4.0, "prior_var": 1.0, "noise_var": 1.0},
                                **display)
            code, out, err = run(
                capsys, "simulate", "--catalog", str(path), "--config", str(config),
                "--out", str(tmp_path / f"out{i}"), "--format", fmt,
            )
            assert (code, err) == (0, "")
            assert '"posterior_means"' in (tmp_path / f"out{i}" / "summary.json").read_text()
        assert built == []

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
            {"clamp_ratings": [float("nan"), 5], "freeze_beliefs": False},
            {"clamp_ratings": [1, float("nan")], "freeze_beliefs": False},
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
