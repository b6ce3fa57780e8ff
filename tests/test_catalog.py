import json
import math
from dataclasses import FrozenInstanceError, replace

import pytest

from assortplan import simulator
from assortplan.assortment import POLICY_PRICE_DESC, two_stage_select
from assortplan.catalog import (
    BeliefPrior,
    Catalog,
    CatalogError,
    Product,
    demo_catalog,
    load_catalog,
    serialize_catalog,
    validate_catalog,
)
from assortplan.cli import main
from assortplan.collusion import audit_ranking
from assortplan.revenue import AttentionSpanDist
from assortplan.simulator import SimConfig, simulate, trace_table
from reference_simulator import summary_document


def doc(products, **extra) -> str:
    return json.dumps({"products": products, **extra})


class TestLoadCatalog:
    def test_demo_document_loads_ten_products(self):
        catalog = load_catalog(serialize_catalog(demo_catalog()))
        assert catalog.universe_size == 10
        a = catalog.get("A")
        assert a.price == 629.0
        assert a.review_count == 61806
        assert a.avg_rating == 4.0
        assert a.revenue_share == 1.0
        assert a.demand_override == 0.95

    def test_empty_product_list(self):
        catalog = load_catalog(doc([]))
        assert catalog.universe_size == 0

    def test_omega_defaults_to_one(self):
        catalog = load_catalog(
            doc([{"id": "X", "price": 5.0, "reviews": 3, "avg_rating": 2.0}])
        )
        assert catalog.get("X").revenue_share == 1.0

    def test_accepts_bytes(self):
        raw = doc([{"id": "X", "price": 5.0, "reviews": 3, "avg_rating": 2.0}])
        assert load_catalog(raw.encode("utf-8")).universe_size == 1

    def test_duplicate_id_rejected(self):
        entries = [
            {"id": "A", "price": 1.0, "reviews": 1, "avg_rating": 2.0},
            {"id": "A", "price": 2.0, "reviews": 1, "avg_rating": 3.0},
        ]
        with pytest.raises(CatalogError, match="duplicate"):
            load_catalog(doc(entries))

    def test_malformed_document_rejected(self):
        with pytest.raises(CatalogError, match="malformed"):
            load_catalog("{not json")

    def test_products_key_required(self):
        with pytest.raises(CatalogError):
            load_catalog("{}")

    def test_negative_price_rejected(self):
        with pytest.raises(CatalogError, match="price"):
            load_catalog(doc([{"id": "X", "price": -1.0, "reviews": 1, "avg_rating": 2.0}]))

    def test_rating_without_reviews_rejected(self):
        with pytest.raises(CatalogError, match="avg_rating"):
            load_catalog(doc([{"id": "X", "price": 1.0, "reviews": 0, "avg_rating": 4.0}]))

    @pytest.mark.parametrize("omega", [0.0, -0.5, 1.5])
    def test_share_outside_unit_interval_rejected(self, omega):
        entry = {"id": "X", "price": 1.0, "reviews": 1, "avg_rating": 2.0, "omega": omega}
        with pytest.raises(CatalogError, match="omega"):
            load_catalog(doc([entry]))

    @pytest.mark.parametrize("lam", [0.0, 1.0, 1.2, -0.1])
    def test_lambda_outside_open_interval_rejected(self, lam):
        entry = {"id": "X", "price": 1.0, "reviews": 1, "avg_rating": 2.0, "lambda": lam}
        with pytest.raises(CatalogError, match="lambda"):
            load_catalog(doc([entry]))

    def test_unknown_key_rejected(self):
        entry = {"id": "X", "price": 1.0, "reviews": 1, "avg_rating": 2.0, "Omega": 0.5}
        with pytest.raises(CatalogError, match="unknown keys"):
            load_catalog(doc([entry]))

    def test_fractional_reviews_rejected(self):
        with pytest.raises(CatalogError, match="reviews"):
            load_catalog(doc([{"id": "X", "price": 1.0, "reviews": 2.5, "avg_rating": 1.0}]))

    def test_review_count_must_fit_int64(self):
        top = {"id": "X", "price": 1.0, "reviews": 2**63 - 1, "avg_rating": 1.0}
        assert load_catalog(doc([top])).products[0].review_count == 2**63 - 1
        for reviews in (2**63, 10**30):
            with pytest.raises(CatalogError, match="reviews"):
                load_catalog(doc([{**top, "reviews": reviews}]))
        assert validate_catalog(Catalog((Product("X", 1.0, 2**63, 1.0),))) == [
            f"product 'X': reviews must lie in [0, 2**63), got {2**63}"
        ]

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
    @pytest.mark.parametrize(
        "key", ["price", "avg_rating", "omega", "true_quality", "rating_noise", "lambda"]
    )
    def test_non_finite_number_rejected(self, key, text):
        # json parses these to NaN, infinities and an int beyond float range.
        entry = {"id": "X", "price": 1.0, "reviews": 1, "avg_rating": 2.0, key: 0.5}
        raw = doc([entry]).replace(f'"{key}": 0.5', f'"{key}": {text}')
        with pytest.raises(CatalogError, match=f"{key} must be a finite number"):
            load_catalog(raw)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "1e400"])
    def test_non_finite_display_scale_rejected(self, text):
        with pytest.raises(CatalogError, match="display_scale"):
            load_catalog(doc([]).replace("]", f"], \"display_scale\": [1, {text}]", 1))

    def test_missing_required_key_rejected(self):
        with pytest.raises(CatalogError, match="missing required key"):
            load_catalog(doc([{"id": "X", "price": 1.0, "reviews": 2}]))

    def test_display_scale_parsed(self):
        catalog = load_catalog(doc([], display_scale=[1, 5]))
        assert catalog.display_scale == (1.0, 5.0)

    def test_bad_display_scale_rejected(self):
        with pytest.raises(CatalogError, match="display_scale"):
            load_catalog(doc([], display_scale=[1]))


class TestLazyProducts:
    @pytest.fixture
    def built(self, monkeypatch) -> list:
        """Every ``Product`` built while the test runs."""
        built = []
        init = Product.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Product, "__init__", counting_init)
        return built

    def test_ranking_a_loaded_catalog_builds_no_product(self, built):
        text = serialize_catalog(demo_catalog())
        built.clear()
        catalog = load_catalog(text)
        assert catalog.universe_size == 10
        assert two_stage_select(catalog, 3)[0].slots == ("A", "B", "F")
        two_stage_select(catalog, 10, POLICY_PRICE_DESC)
        assert built == []
        # get builds only the product it returns, and only once.
        assert catalog.get("A").price == 629.0
        assert catalog.get("A") is catalog.get("A")
        assert len(built) == 1
        with pytest.raises(KeyError, match="unknown product id 'Z'"):
            catalog.get("Z")
        assert catalog.products is catalog.products
        assert len(built) == 11
        assert catalog.get("A") == catalog.products[0] == demo_catalog().get("A")
        # Once products exist, get answers with them.
        assert catalog.get("B") is catalog.products[1]

    def test_get_on_a_catalog_of_products_derives_no_columns(self):
        catalog = demo_catalog()
        assert catalog.get("B") is catalog.products[1]
        with pytest.raises(KeyError, match="unknown product id 'Z'"):
            catalog.get("Z")
        assert "columns" not in catalog.__dict__

    def test_auditing_a_loaded_catalog_builds_at_most_the_displayed_products(self, built):
        text = serialize_catalog(demo_catalog())
        built.clear()
        catalog = load_catalog(text)
        span = AttentionSpanDist.deterministic(3)
        assert audit_ranking(catalog, ["A", "B", "F"], 3, span, omega=1.0) == []
        assert built == []
        # A perturbed slate also reads the compliant slate A, B, F.
        built.clear()
        catalog = load_catalog(text)
        assert audit_ranking(catalog, ["A", "D", "F"], 3, span, omega=1.0)
        assert built == []

    def test_analytic_commands_on_a_loaded_catalog_build_no_product(
        self, built, tmp_path, capsys
    ):
        pinned = tmp_path / "pinned.json"
        pinned.write_text(serialize_catalog(demo_catalog()))
        logit = tmp_path / "logit.json"
        logit.write_text(
            serialize_catalog(
                Catalog(
                    replace(p, price=p.price / 100, demand_override=None)
                    for p in demo_catalog().products
                )
            )
        )
        prior = ["--prior", "4.0,1.0,1.0"]
        commands = [
            ["optimize", "--catalog", str(pinned), "--slots", "3", "--span", "y=3",
             "--compare", "A,B,F"],
            ["optimize", "--catalog", str(logit), "--slots", "2", "--span", "pmf=1:0.5,3:0.5",
             "--compare", "A,D", *prior],
            ["expected-revenue", "--catalog", str(pinned), "--slate", "A,B,F", "--span", "y=3"],
            ["expected-revenue", "--catalog", str(logit), "--slate", "D,A", "--span", "y=2",
             *prior],
            ["audit", "--catalog", str(pinned), "--displayed", "A,D,F", "--span", "y=3"],
            ["audit", "--catalog", str(logit), "--displayed", "B,A,F", "--span", "y=3", *prior],
        ]
        built.clear()
        for argv in commands:
            assert main(argv) in (0, 1), capsys.readouterr().err
        assert built == []

    def test_simulating_a_loaded_catalog_builds_no_product(self, built):
        rated = Catalog(
            replace(p, price=1.0, true_quality=p.avg_rating, rating_noise=0.5, demand_override=None)
            for p in demo_catalog().products
        )
        prior, span = BeliefPrior(4.0, 1.0, 1.0), AttentionSpanDist.from_pmf({1: 0.5, 3: 0.5})
        configs = [
            (demo_catalog(), dict(slate=("A", "D", "F"), freeze_beliefs=True)),
            (demo_catalog(), dict(rerank_every=4, slot_count=3, freeze_beliefs=True)),
            (rated, dict(slate=("C", "E", "H"))),
            (rated, dict(rerank_every=3, slot_count=4, policy=POLICY_PRICE_DESC)),
        ]
        for source, display in configs:
            text = serialize_catalog(source)
            built.clear()
            catalog = load_catalog(text)
            cfg = SimConfig(horizon=300, seed=8, dist=span, prior=prior, **display)
            trace = simulate(catalog, cfg)
            trace_table(trace)
            summary_document(trace)
            assert built == []
            # Nor did the run, the trace writer or the summary build records.
            assert "records" not in trace.__dict__
            if not display.get("freeze_beliefs"):
                assert trace.rated and trace.records[trace.rated[0]].rating is not None

    def test_cli_simulate_reads_no_records(self, built, demo_path, tmp_path, monkeypatch):
        def unread(trace):
            raise AssertionError("SimTrace.records was read")

        monkeypatch.setattr(simulator.SimTrace, "records", property(unread))
        built.clear()  # the demo_path fixture built the demo catalog's products
        prior = {"mean": 0.0, "prior_var": 1.0, "noise_var": 1.0}
        for name, display in (
            ("frozen", {"slate": ["A", "B", "F"], "freeze_beliefs": True}),
            ("rerank", {"rerank_every": 5, "slot_count": 3}),
        ):
            config = tmp_path / f"{name}.json"
            doc = {"horizon": 200, "seed": 1, "span": "y=3", "prior": prior, **display}
            config.write_text(json.dumps(doc))
            argv = ["simulate", "--catalog", str(demo_path), "--config", str(config)]
            argv += ["--out", str(tmp_path / name)]
            assert main(argv) == 0
        assert built == []

    def test_catalog_surface_is_unchanged(self):
        built = demo_catalog()
        loaded = load_catalog(serialize_catalog(built))
        assert loaded == built and hash(loaded) == hash(built)
        assert repr(loaded) == repr(built)
        assert repr(built).startswith("Catalog(products=(Product(id='A', price=629.0")
        assert built.columns is built.columns
        with pytest.raises(FrozenInstanceError):
            loaded.display_scale = (1.0, 5.0)
        with pytest.raises(FrozenInstanceError):
            del built.products


class TestRoundTrip:
    def test_demo_round_trips(self):
        original = demo_catalog()
        assert load_catalog(serialize_catalog(original)) == original

    def test_random_catalogs_round_trip_and_validate_clean(self):
        import numpy as np

        from helpers import random_catalog

        rng = np.random.default_rng(19)
        for _ in range(50):
            original = random_catalog(rng)
            reloaded = load_catalog(serialize_catalog(original))
            assert reloaded == original
            assert validate_catalog(reloaded) == []

    def test_optionals_round_trip(self):
        original = Catalog(
            products=(
                Product(
                    id="X",
                    price=10.0,
                    review_count=4,
                    avg_rating=3.5,
                    revenue_share=0.3,
                    true_quality=4.0,
                    rating_noise=0.5,
                    demand_override=0.25,
                ),
            ),
            display_scale=(1.0, 5.0),
        )
        assert load_catalog(serialize_catalog(original)) == original


class TestValidateCatalog:
    def test_demo_is_clean(self):
        assert validate_catalog(demo_catalog()) == []

    def test_rating_with_zero_reviews_flagged(self):
        catalog = Catalog((Product(id="X", price=1.0, review_count=0, avg_rating=4.0),))
        assert validate_catalog(catalog) == [
            "product 'X': avg_rating must be 0 when reviews is 0, got 4.0"
        ]

    def test_share_above_one_flagged(self):
        catalog = Catalog(
            (Product(id="X", price=1.0, review_count=1, avg_rating=2.0, revenue_share=1.5),)
        )
        assert validate_catalog(catalog) == ["product 'X': omega must lie in (0, 1], got 1.5"]

    def test_duplicate_ids_flagged(self):
        product = Product(id="X", price=1.0, review_count=1, avg_rating=2.0)
        assert validate_catalog(Catalog((product, product))) == ["duplicate product id 'X'"]

    def test_override_out_of_range_flagged(self):
        catalog = Catalog(
            (Product(id="X", price=1.0, review_count=1, avg_rating=2.0, demand_override=1.0),)
        )
        assert validate_catalog(catalog) == [
            "product 'X': lambda must lie strictly in (0, 1), got 1.0"
        ]

    @pytest.mark.parametrize(
        "field",
        ["price", "avg_rating", "revenue_share", "true_quality", "rating_noise", "demand_override"],
    )
    def test_non_finite_numbers_flagged(self, field):
        key = {"revenue_share": "omega", "demand_override": "lambda"}.get(field, field)
        product = Product(id="X", price=1.0, review_count=1, avg_rating=2.0)
        for value in (math.nan, math.inf):
            violations = validate_catalog(Catalog((replace(product, **{field: value}),)))
            assert violations == [f"product 'X': {key} must be a finite number, got {value}"]
        scale = Catalog((product,), display_scale=(1.0, math.nan))
        assert validate_catalog(scale) == [
            "'display_scale' must be a [low, high] finite number pair"
        ]

    def test_one_fault_per_product_after_the_display_scale(self):
        catalog = Catalog(
            (
                Product("X", -1.0, 0, 4.0, revenue_share=2.0),
                Product("Y", 1.0, 2, 3.0),
                Product("Z", 1.0, -1, 4.0, rating_noise=0.0),
                Product("X", 1.0, 1, 1.0),
            ),
            display_scale=(5.0,),
        )
        assert validate_catalog(catalog) == [
            "'display_scale' must be a [low, high] finite number pair",
            "product 'X': price must be nonnegative, got -1.0",
            # An out-of-range count reads as 0; the zero-review rating rule
            # must not report the 4.0 as a second fault.
            "product 'Z': reviews must lie in [0, 2**63), got -1",
            "duplicate product id 'X'",
        ]

    def test_loaded_documents_validate_clean(self):
        raw = serialize_catalog(demo_catalog())
        assert validate_catalog(load_catalog(raw)) == []


class TestBeliefPrior:
    def test_precision_ratio_is_exact_quotient(self):
        prior = BeliefPrior(prior_mean=2.0, prior_var=0.5, noise_var=2.0)
        assert prior.precision_ratio == 0.25

    @pytest.mark.parametrize("kwargs", [{"prior_var": 0.0}, {"noise_var": -1.0}])
    def test_nonpositive_variances_rejected(self, kwargs):
        base = {"prior_mean": 0.0, "prior_var": 1.0, "noise_var": 1.0}
        with pytest.raises(ValueError):
            BeliefPrior(**{**base, **kwargs})


def test_catalog_lookup_unknown_id():
    with pytest.raises(KeyError, match="unknown product id"):
        demo_catalog().get("Z")
