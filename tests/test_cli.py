import json

import numpy as np
import pytest

from assortplan.catalog import Catalog, demo_catalog
from assortplan.cli import main, parse_omega_spec, parse_prior_spec, parse_span_spec
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
        code, _, err = run(
            capsys, "rank", "--catalog", str(tmp_path / "nope.json"), "--slots", "3"
        )
        assert code == 2
        assert "error" in err

    def test_malformed_catalog(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken", encoding="utf-8")
        code, _, err = run(capsys, "rank", "--catalog", str(path), "--slots", "3")
        assert code == 2
        assert "malformed" in err

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

    def test_missing_config_key_rejected(self, capsys, demo_path, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"horizon": 5}), encoding="utf-8")
        code, _, err = run(
            capsys, "simulate", "--catalog", str(demo_path),
            "--config", str(path), "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert "missing required key" in err


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
