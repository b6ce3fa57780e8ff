import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_simulator as ref
from assortplan import cli, revenue
from assortplan.catalog import (
    BeliefPrior,
    Catalog,
    CatalogColumns,
    Product,
    demo_catalog,
    serialize_catalog,
)
from assortplan.cli import (
    _json_indented,
    _manifest,
    _summary_json,
    main,
    parse_omega_spec,
    parse_prior_spec,
    parse_span_spec,
)
from assortplan.demand import CostModel, posterior
from assortplan.revenue import AttentionSpanDist, resolve_inputs
from assortplan.simulator import SimConfig, SimSummary, SimTrace, count_column, simulate
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


def rated_catalog(tmp_path):
    """The demo catalog at price 1 with computed demand and rating parameters, as a file."""
    rated = Catalog(
        Product(id=p.id, price=1.0, review_count=p.review_count, avg_rating=p.avg_rating,
                true_quality=p.avg_rating, rating_noise=0.5)
        for p in demo_catalog().products
    )
    path = tmp_path / "rated.json"
    path.write_text(serialize_catalog(rated), encoding="utf-8")
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
        rated=[],
        review_counts=count_column(draw(st.lists(SUMMARY_COUNTS, min_size=n, max_size=n))),
        review_means=np.array(draw(st.lists(SUMMARY_MEANS, min_size=n, max_size=n))),
        prior=BeliefPrior(draw(st.floats(-5, 5)), draw(st.floats(0.1, 10)), 1.0),
        columns=columns,
    )


@given(summary_traces(), SUMMARY_IDS)
def test_summary_writer_matches_json_dumps(trace, config_path):
    manifest = _manifest("simulate", {"config_path": config_path, "seed": 2**64 - 1}, "0f")
    expected = json.dumps({"manifest": manifest, **ref.summary_document(trace)}, indent=2)
    assert _summary_json(manifest, trace.summary) + "\n" == expected + "\n"
    # Each posterior mean has the bits of the scalar form, past int64 too.
    states = zip(trace.review_counts.tolist(), trace.review_means.tolist())
    scalar = [posterior(trace.prior, count, mean) for count, mean in states]
    assert list(map(repr, trace.summary.posterior_means.values())) == list(
        map(repr, [dict(zip(trace.columns.ids, scalar))[pid] for pid in trace.summary.ids])
    )


IDS = st.text(alphabet=st.characters(codec="utf-8"), min_size=1, max_size=6)
REPORT_NUMBERS = st.floats() | st.integers(-(2**70), 2**70) | st.none()
CONFIGS = st.fixed_dictionaries(
    {"slots": st.integers(1, 8), "span": st.text(max_size=12), "omega": st.none() | st.text(max_size=8)},
    optional={"compare": st.none() | st.lists(IDS, max_size=5), "trace": st.booleans()},
)
REPORTS = st.fixed_dictionaries(
    {
        "manifest": st.fixed_dictionaries(
            {"command": st.text(max_size=16), "config": CONFIGS,
             "input_digest": st.text("0123456789abcdef", min_size=64, max_size=64), "version": st.just("0.1.0")}
        ),
    },
    optional={
        "slate": st.lists(IDS, max_size=8), "value": REPORT_NUMBERS, "enumerated": st.integers(0, 10**30),
        "compare_value": REPORT_NUMBERS, "gap": REPORT_NUMBERS, "per_slot_purchase_prob": st.lists(st.floats()),
        "findings": st.lists(
            st.fixed_dictionaries({"slot": st.integers(1, 9), "product": IDS, "kind": st.text(max_size=9),
                                   "detail": st.text(max_size=30)}), max_size=3,
        ),
    },
)


@settings(max_examples=200)
@given(REPORTS)
def test_report_shaped_values_match_json_dumps(report):
    # The optimize, expected-revenue and audit reports, with any ids, numbers and text.
    assert _json_indented(report) == json.dumps(report, indent=2)


def test_long_lists_cost_no_encoder_call_per_item(monkeypatch):
    # A rank --trace report lists thousands of ids: the C encoder writes each list in one call,
    # so the number of calls follows the report's containers and mixed-in scalars, not its length.
    catalog = random_catalog(np.random.default_rng(3), size=2000)
    ranking, trace = cli.two_stage_select(catalog, 10)
    report = {"manifest": _manifest("rank", {"slots": 10}, "0f"), "ranking": list(ranking.slots),
              "trace": trace.to_report()}
    calls = []
    encoder = cli._flat_encoder
    monkeypatch.setattr(cli, "_flat_encoder", lambda pad: calls.append(pad) or encoder(pad))
    assert _json_indented(report) == json.dumps(report, indent=2)
    assert sum(len(r["stage1_order"]) for r in report["trace"]) > 10_000
    assert len(calls) < 150


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

    def test_unknown_catalog_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "catalog.json"
        product = {"id": "A", "price": 1, "reviews": 1, "avg_rating": 4.0}
        path.write_text(json.dumps({"products": [product], "display_scal": [1, 5]}))
        code, out, err = run(capsys, "rank", "--catalog", str(path), "--slots", "1")
        assert (code, out) == (2, "")
        assert err == "error: catalog document: unknown keys ['display_scal']\n"

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


class TestWarnings:
    # Two logit products priced at 100 against ratings near 3: every utility is near -97.
    LOGIT = Catalog((Product("A", 100.0, 1, 4.0), Product("B", 100.0, 2, 3.0)))
    TAIL = "exceeds +/-50.0; check that prices and ratings use commensurate units"

    @pytest.mark.parametrize(
        "argv, utilities",
        [
            (("expected-revenue", "--slate", "A,B"), [("-96.5", "A"), ("-97.1", "B")]),
            (
                ("optimize", "--slots", "2"),
                [("-96.5", "A"), ("-97", "B"), ("-97.1", "B"), ("-96.6", "A")],
            ),
        ],
    )
    def test_utility_warnings_are_one_line_each(self, capsys, write_catalog, argv, utilities):
        shown = warnings.showwarning
        path = write_catalog(self.LOGIT)
        code, out, err = run(
            capsys, *argv[:1], "--catalog", str(path), *argv[1:], "--span", "y=2",
            "--prior", "3,1,1",
        )
        assert code == 0 and out
        assert err.splitlines() == [
            f"warning: utility {chi} for product {pid!r} {self.TAIL}" for chi, pid in utilities
        ]
        # The engine's own warnings are left as they were for library callers.
        assert warnings.showwarning is shown
        with pytest.warns(RuntimeWarning, match="commensurate"):
            resolve_inputs(self.LOGIT, ["A"], prior=BeliefPrior(3.0, 1.0, 1.0))

    def test_each_distinct_warning_prints_once_per_request(self, capsys, write_catalog):
        # The demand table and the compare slate warn from different lines,
        # so the warnings registry alone printed (B, 1) and (A, 2) twice.
        path = write_catalog(self.LOGIT)
        argv = ("optimize", "--catalog", str(path), "--slots", "2", "--span", "y=2",
                "--prior", "3,1,1", "--cost-slope", "0.2", "--compare", "B,A")
        code, out, err = run(capsys, *argv)
        assert code == 0 and out
        utilities = [("-96.5", "A"), ("-97", "B"), ("-97.2", "B"), ("-96.7", "A")]
        assert err.splitlines() == [
            f"warning: utility {chi} for product {pid!r} {self.TAIL}" for chi, pid in utilities
        ]
        # Once per request, not once per process.
        assert run(capsys, *argv) == (code, out, err)


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

    def test_compare_longer_than_the_slots_rejected(self, capsys, demo_path):
        # The one-slot optimum was printed below the compare slate, as a gap of -89.4805.
        result = run(
            capsys, "optimize", "--catalog", str(demo_path), "--slots", "1", "--span", "y=5",
            "--compare", "B,A,F,J,G", "--omega", "uniform:1.0",
        )
        assert result == (2, "", "error: compare slate of 5 products exceeds slot_count 1\n")

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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["optimize", "--slots", "3", "--span", "y=3", "--prior", "1,2"],
         "prior spec must be 'MEAN,PRIOR_VAR,NOISE_VAR', got '1,2'"),
        (["expected-revenue", "--slate", ",", "--span", "y=3"], "empty slate spec ','"),
    ],
)
def test_flag_refusals(capsys, demo_path, argv, message):
    result = run(capsys, argv[0], "--catalog", str(demo_path), *argv[1:])
    assert result == (2, "", f"error: {message}\n")


def test_internal_consistency_error_exits_three(capsys, demo_path, monkeypatch):
    monkeypatch.setattr(revenue, "_tail_value", lambda terms, dist: -1.0)
    code, out, err = run(
        capsys, "expected-revenue", "--catalog", str(demo_path), "--slate", "A,B,F", "--span", "y=3"
    )
    assert (code, out) == (3, "")
    assert err.startswith("internal consistency error: span-expectation forms disagree: ")


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

    # X is pinned and Y logit, with no --prior: only a swap's revenue needs Y's demand.
    @pytest.mark.parametrize(
        "displayed, code, out, err",
        [
            ("X", 0, "findings 0\n", ""),
            ("X,Y", 0, "findings 0\n", ""),
            ("Y,X", 2, "", "error: purchase probability unresolvable for 'Y': "
             "no demand override and no prior belief supplied\n"),
        ],
    )
    def test_logit_demand_is_resolved_only_for_an_inverted_pair(
        self, capsys, write_catalog, displayed, code, out, err
    ):
        path = write_catalog(
            Catalog(
                (
                    Product(id="X", price=2.0, review_count=30, avg_rating=4.0, demand_override=0.5),
                    Product(id="Y", price=1.0, review_count=20, avg_rating=3.0),
                )
            )
        )
        result = run(capsys, "audit", "--catalog", str(path), "--displayed", displayed, "--span", "y=2")
        assert result[0] == code
        assert result[1].split("# manifest")[0] == out
        assert result[2] == err


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

    @pytest.mark.parametrize("rerank", [False, True])
    def test_outputs_overwrite_longer_files_in_place(self, capsys, demo_path, tmp_path, rerank):
        display = {"slate": None, "rerank_every": 10, "slot_count": 3} if rerank else {}
        (tmp_path / "long").mkdir()
        short = sim_config(tmp_path, **display)
        long = sim_config(tmp_path / "long", horizon=500, **display)
        fresh, reused, junk, partial = (tmp_path / name for name in ("fresh", "reused", "junk", "partial"))

        def simulate(config, out):
            argv = ["--catalog", str(demo_path), "--config", str(config), "--out", str(out)]
            assert run(capsys, "simulate", *argv)[0] == 0

        simulate(short, fresh)
        simulate(long, reused)
        assert all((reused / name).stat().st_size > (fresh / name).stat().st_size
                   for name in ("trace.tsv", "summary.json"))
        simulate(short, reused)
        # Junk longer than either file, trace.tsv of mode 0600; in partial, trace.tsv is missing.
        for out, names in ((junk, ("trace.tsv", "summary.json")), (partial, ("summary.json",))):
            out.mkdir()
            for name in names:
                (out / name).write_bytes(b"\xff" * 20_000)
                (out / name).chmod(0o600)
            simulate(short, out)
            assert all((out / name).stat().st_mode & 0o777 == 0o600 for name in names)
        for out in (reused, junk, partial):
            for name in ("trace.tsv", "summary.json"):
                assert (out / name).read_bytes() == (fresh / name).read_bytes()

    @pytest.mark.parametrize("unencodable", ["trace.tsv", "summary.json"])
    def test_a_failed_encode_leaves_both_files_as_they_were(
        self, capsys, demo_path, tmp_path, monkeypatch, unencodable
    ):
        out = tmp_path / "out"
        names = ("trace.tsv", "summary.json")
        argv = ["simulate", "--config", str(sim_config(tmp_path)), "--out", str(out)]
        assert run(capsys, *argv, "--catalog", str(demo_path))[0] == 0
        before = {name: (out / name).read_bytes() for name in names}
        # A lone surrogate: JSON may escape one, but no UTF-8 text can hold it.
        renamed = Catalog(tuple(
            dataclasses.replace(p, id="\ud800") if p.id == "C" else p for p in demo_catalog().products
        ))
        catalog = tmp_path / "surrogate.json"
        catalog.write_text(serialize_catalog(renamed), encoding="utf-8")
        if unencodable == "trace.tsv":  # the slate's first product is bought and named in the trace
            config = sim_config(tmp_path, slate=["\ud800", "B", "F"], horizon=100)
        else:
            # An unbought one is escaped in summary.json, so that run writes both files ...
            assert run(capsys, *argv, "--catalog", str(catalog))[0] == 0
            assert b'"\\ud800": {' in (out / "summary.json").read_bytes()
            assert run(capsys, *argv, "--catalog", str(demo_path))[0] == 0
            assert {name: (out / name).read_bytes() for name in names} == before
            # ... and a summary that cannot be encoded is made here, beside a new trace.
            config = sim_config(tmp_path, horizon=100)
            summary_json = cli._summary_json
            monkeypatch.setattr(cli, "_summary_json", lambda *args: summary_json(*args) + "\ud800")
        argv = ["simulate", "--config", str(config), "--out", str(out)]
        code, stdout, err = run(capsys, *argv, "--catalog", str(catalog))
        assert (code, stdout) == (2, "")
        assert "surrogates not allowed" in err
        assert {name: (out / name).read_bytes() for name in names} == before

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
        "overrides, typed",
        [
            ({"slate": None, "rerank_every": "5", "slot_count": 3},
             lambda: dict(slate=None, rerank_every="5", slot_count=3)),
            ({"clamp_ratings": 5}, lambda: dict(clamp_ratings=5)),
            ({"horizon": 10.9}, lambda: dict(horizon=10.9)),
            ({"slate": "ABF"}, lambda: dict(slate="ABF")),
            ({"freeze_beliefs": "no"}, lambda: dict(freeze_beliefs="no")),
            ({"slate": None, "rerank_every": 5, "slot_count": 3.5},
             lambda: dict(slate=None, rerank_every=5, slot_count=3.5)),
            ({"prior": {"mean": "3", "prior_var": 1.0, "noise_var": 1.0}},
             lambda: dict(prior=BeliefPrior("3", 1.0, 1.0))),
            ({"cost_slope": "0.1"}, lambda: dict(cost=CostModel("0.1"))),
            ({"span": 3}, lambda: dict(dist=parse_span_spec(3))),
            ({"policy": 7}, lambda: dict(policy=7)),
        ],
        ids=["str-rerank-every", "number-clamp", "float-horizon", "str-slate", "str-freeze-beliefs",
             "float-slot-count", "str-prior-mean", "str-cost-slope", "number-span", "number-policy"],
    )
    def test_mistyped_config_value_rejected(self, capsys, demo_path, tmp_path, overrides, typed):
        # The library alone checks a value: the CLI prints what simulate says of the same values.
        library = dict(horizon=200, seed=42, dist=AttentionSpanDist.deterministic(3),
                       prior=BeliefPrior(0.0, 1.0, 1.0), slate=("A", "B", "F"), freeze_beliefs=True)
        with pytest.raises(ValueError) as refused:
            simulate(demo_catalog(), SimConfig(**{**library, **typed()}))
        config = sim_config(tmp_path, **overrides)
        result = run(
            capsys, "simulate", "--catalog", str(demo_path),
            "--config", str(config), "--out", str(tmp_path / "out"),
        )
        assert result == (2, "", f"error: {refused.value}\n")
        assert not (tmp_path / "out").exists()

    def test_config_seed_refused_under_seed_override(self, capsys, demo_path, tmp_path):
        config = sim_config(tmp_path, seed=1.5)
        result = run(
            capsys, "simulate", "--catalog", str(demo_path), "--config", str(config),
            "--out", str(tmp_path / "out"), "--seed", "5",
        )
        assert result == (2, "", "error: seed must be an integer, got 1.5\n")
        assert not (tmp_path / "out").exists()

    def test_null_optional_values_take_the_defaults(self, capsys, tmp_path):
        catalog = rated_catalog(tmp_path)
        display = dict(slate=None, rerank_every=7, slot_count=3, freeze_beliefs=False,
                       prior={"mean": 4.0, "prior_var": 1.0, "noise_var": 1.0})
        outputs = []
        for nulls in ({"cost_slope": None, "policy": None}, {}):
            config = sim_config(tmp_path, **display, **nulls)
            out = tmp_path / f"out{len(outputs)}"
            result = run(capsys, "simulate", "--catalog", str(catalog), "--config", str(config),
                         "--out", str(out), "--format", "structured")
            assert result[0] == 0
            files = [(out / name).read_bytes() for name in ("trace.tsv", "summary.json")]
            outputs.append((result, files))
        assert outputs[0] == outputs[1]

    def test_int_prior_reads_as_its_float(self, capsys, tmp_path):
        catalog = rated_catalog(tmp_path)
        traces = []
        for prior in ({"mean": 3, "prior_var": 1, "noise_var": 4},
                      {"mean": 3.0, "prior_var": 1.0, "noise_var": 4.0}):
            config = sim_config(tmp_path, prior=prior, freeze_beliefs=False)
            out = tmp_path / f"out{len(traces)}"
            code, _, err = run(capsys, "simulate", "--catalog", str(catalog), "--config", str(config),
                               "--out", str(out))
            assert (code, err) == (0, "")
            traces.append((out / "trace.tsv").read_bytes())
        assert traces[0] == traces[1]

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"clamp_ratings": [1]}, "clamp_ratings must be a (low, high) tuple of numbers, got (1,)"),
            ({"prior": {"mean": 0.0, "prior_var": 1.0}},
             "simulation config: 'prior' missing required key 'noise_var'"),
            ({"slate": None, "rerank_every": 0, "slot_count": 3}, "rerank_every must be >= 1, got 0"),
            ({"policy": "bogus"}, "unknown ordering policy 'bogus'"),
            ({"slate": []}, "fixed slate is empty"),
            # It ran and showed all three products of the slate.
            ({"slot_count": 1}, "slot_count applies only with rerank_every"),
        ],
    )
    def test_config_refusals(self, capsys, demo_path, tmp_path, overrides, message):
        config = sim_config(tmp_path, **overrides)
        result = run(
            capsys, "simulate", "--catalog", str(demo_path), "--config", str(config),
            "--out", str(tmp_path / "out"),
        )
        assert result == (2, "", f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_rerank_over_an_empty_catalog_rejected(self, capsys, tmp_path):
        catalog = tmp_path / "empty.json"
        catalog.write_text('{"products": []}', encoding="utf-8")
        config = sim_config(tmp_path, slate=None, rerank_every=2, slot_count=3)
        result = run(
            capsys, "simulate", "--catalog", str(catalog), "--config", str(config),
            "--out", str(tmp_path / "out"),
        )
        assert result == (2, "", "error: catalog is empty\n")

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
        # Review states stay columns from the run to summary.json: the
        # summary's dict views and the trace's records are never built.
        def unread(name):
            def read(_):
                raise AssertionError(f"{name} read")
            return property(read)

        for owner, name in ((SimSummary, "final_states"), (SimSummary, "posterior_means"),
                            (SimTrace, "records")):
            monkeypatch.setattr(owner, name, unread(f"{owner.__name__}.{name}"))
        path = rated_catalog(tmp_path)
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

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"freeze_belief": True}, "unknown key 'freeze_belief'"),
            ({"clamp_rating": [1, 5], "seed": None}, "unknown key 'clamp_rating'"),
            (
                {"prior": {"mean": 0.0, "prior_var": 1.0, "noise_var": 1.0, "noise": 2.0}},
                "'prior' unknown key 'noise'",
            ),
        ],
    )
    def test_unknown_config_key_rejected(self, capsys, demo_path, tmp_path, overrides, message):
        # A misspelt key would otherwise run with its default in silence.
        config = sim_config(tmp_path, **overrides)
        out = tmp_path / "out"
        code, stdout, err = run(
            capsys, "simulate", "--catalog", str(demo_path), "--config", str(config),
            "--out", str(out),
        )
        assert (code, stdout, err) == (2, "", f"error: simulation config: {message}\n")
        assert not out.exists()

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
            # prior_var / noise_var is inf: an unreviewed product's posterior inf * 0.
            (*OPTIMIZE, "--prior", "0,1,1e-320"),
            ("expected-revenue", "--slate", "A,B", "--span", "y=2", "--prior", "0,1,1e-320"),
            ("audit", "--displayed", "A,B,F", "--span", "y=3", "--prior", "0,1,1e-320"),
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
            {"prior": {"mean": 0.0, "prior_var": 1.0, "noise_var": 1e-320}},
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

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"cost_slope": 10**400}, "cost slope"),
            ({"cost_slope": -(10**400)}, "cost slope"),
            ({"prior": {"mean": 10**400, "prior_var": 1.0, "noise_var": 1.0}}, "prior_mean"),
            ({"prior": {"mean": 0.0, "prior_var": 10**400, "noise_var": 1.0}}, "prior_var"),
            ({"prior": {"mean": 0.0, "prior_var": 1.0, "noise_var": -(10**400)}}, "noise_var"),
            ({"clamp_ratings": [0, 10**400], "freeze_beliefs": False}, "clamp_ratings bound"),
        ],
        ids=["cost-slope", "negative-cost-slope", "prior-mean", "prior-var", "noise-var", "clamp"],
    )
    def test_int_beyond_float_range_rejected(self, capsys, demo_path, tmp_path, overrides, field):
        # An int that no float holds is invalid input (exit 2), not an internal error (exit 3).
        config = sim_config(tmp_path, **overrides)
        code, out, err = run(
            capsys, "simulate", "--catalog", str(demo_path),
            "--config", str(config), "--out", str(tmp_path / "out"),
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field} must be a finite number, got ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_repeated_span_flag_rejected(self, capsys, demo_path):
        spec = "pmf=1:0.5,2:0.5,1:0.5"
        code, out, err = run(
            capsys, "expected-revenue", "--catalog", str(demo_path), "--slate", "A,B",
            "--span", spec,
        )
        assert (code, out) == (2, "")
        assert err == "error: repeated span 1 in span pmf\n"

    def test_repeated_span_config_rejected(self, capsys, demo_path, tmp_path):
        config = sim_config(tmp_path, span="pmf=3:0.5,2:0.25,03:0.25")
        code, out, err = run(
            capsys, "simulate", "--catalog", str(demo_path),
            "--config", str(config), "--out", str(tmp_path / "out"),
        )
        assert (code, out) == (2, "")
        assert err == "error: repeated span 3 in span pmf\n"
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


class TestUnicodeErrors:
    """Each error line gives the reason, not just the codec's name."""

    ENTRY = {"id": "A", "price": 1.0, "reviews": 1, "avg_rating": 4.0}

    def test_catalog_with_a_non_utf8_byte(self, capsys, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_bytes(json.dumps({"products": [self.ENTRY]}).encode().replace(b'"A"', b'"A\xff"'))
        code, out, err = run(capsys, "rank", "--catalog", str(path), "--slots", "1")
        assert (code, out) == (2, "")
        assert err == (
            "error: malformed catalog document: 'utf-8' codec can't decode byte 0xff "
            "in position 23: invalid start byte\n"
        )

    def test_config_with_a_non_utf8_byte(self, capsys, demo_path, tmp_path):
        config = sim_config(tmp_path, slate=["\u00ff"])
        config.write_bytes(config.read_bytes().replace(b"\\u00ff", b"\xff"))
        code, out, err = run(
            capsys, "simulate", "--catalog", str(demo_path), "--config", str(config),
            "--out", str(tmp_path / "out"),
        )
        assert (code, out) == (2, "")
        assert err.startswith(
            "error: malformed simulation config: 'utf-8' codec can't decode byte 0xff in position "
        )
        assert err.endswith(": invalid start byte\n") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_text_output_of_a_lone_surrogate(self, capsys, tmp_path):
        # JSON may escape a lone surrogate, which no UTF-8 text can hold.
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"products": [{**self.ENTRY, "id": "\ud800"}]}))
        code, out, err = run(capsys, "rank", "--catalog", str(path), "--slots", "1")
        assert (code, out) == (2, "")
        assert err == (
            "error: 'utf-8' codec can't encode character '\\ud800' in position 0: "
            "surrogates not allowed\n"
        )
        # The structured report escapes it.
        code, out, _ = run(capsys, "rank", "--catalog", str(path), "--slots", "1", "--format", "structured")
        assert code == 0 and json.loads(out)["ranking"] == ["\ud800"]


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


class TestArgv:
    """A plain command line is read off the parser's own actions; argparse reads any other."""

    def test_plain_command_lines_are_read_off_the_table(self, demo_path):
        catalog = str(demo_path)
        for argv in (
            ["rank", "--catalog", catalog, "--slots", "3", "--trace", "--format", "structured"],
            ["rank", "--policy", "price-desc", "--slots", "10", "--catalog", catalog],
            ["expected-revenue", "--catalog", catalog, "--slate", "A,B,F", "--span", "y=3",
             "--prior", "3,1,4", "--cost-slope", "0.2"],
            ["optimize", "--catalog", catalog, "--slots", "5", "--span", "y=5", "--compare", "A,B",
             "--omega", "uniform:1.0"],
            ["audit", "--catalog", catalog, "--displayed", "A,D,F", "--span", "pmf=1:0.5,3:0.5"],
            ["simulate", "--catalog", catalog, "--config", "sim.json", "--out", "out", "--seed", "7"],
        ):
            table = cli._read_argv(argv)
            assert table is not None, argv
            assert vars(table) == vars(cli.build_parser().parse_args(argv)), argv

    @pytest.mark.parametrize(
        "respelt, read_as_plain",
        [
            pytest.param(["--slot", "3"], True, id="abbreviation"),
            pytest.param(["--slots=3"], True, id="joined-value"),
            pytest.param(["--slots", "1", "--slots", "3"], True, id="repeated"),
            pytest.param(["--slots", "-3"], False, id="negative-value"),
            pytest.param(["--", "--slots", "3"], False, id="double-dash"),
            pytest.param(["--slots", "3", "-h"], False, id="help"),
        ],
    )
    def test_other_spellings_are_left_to_argparse(self, capsys, demo_path, respelt, read_as_plain):
        argv = ["rank", "--catalog", str(demo_path), *respelt]
        assert cli._read_argv(argv) is None
        if read_as_plain:
            plain = run(capsys, "rank", "--catalog", str(demo_path), "--slots", "3")
            assert run(capsys, *argv) == plain

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["rank", "--slots", "3"],
                         "error: the following arguments are required: --catalog", id="missing-required"),
            pytest.param(["rank", "--catalog", "{catalog}", "--slots", "3", "--policy", "bogus"],
                         "error: argument --policy: invalid choice: 'bogus'", id="invalid-choice"),
            pytest.param(["optimize", "--catalog", "{catalog}", "--slots", "x", "--span", "y=3"],
                         "error: argument --slots: invalid int value: 'x'", id="invalid-int"),
            pytest.param(["optimize", "--catalog", "{catalog}", "--s", "3", "--span", "y=3"],
                         "error: ambiguous option: --s could match", id="ambiguous-abbreviation"),
        ],
    )
    def test_usage_errors_are_argparse_s(self, capsys, demo_path, argv, message):
        argv = [token.format(catalog=demo_path) for token in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert err == capsys.readouterr().err
        assert message in err.splitlines()[-1]

    def test_main_without_arguments_reads_sys_argv(self, capsys, monkeypatch, demo_path):
        monkeypatch.setattr("sys.argv", ["assortplan", "rank", "--catalog", str(demo_path), "--slots", "3"])
        assert main() == 0
        assert capsys.readouterr().out.splitlines()[0] == "A B F"
