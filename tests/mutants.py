"""Replayable mutants: each entry breaks one snippet of ``src/`` and names the tests that catch it.

Run from anywhere (a few seconds per entry; it is not part of the tier-1 suite):

    python tests/mutants.py            # every entry
    python tests/mutants.py NAME ...   # only the named entries

The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` into a
temporary directory and never writes the working tree.  It first runs all
the named tests on the unmutated copy, which must pass.  Then, for each
entry, it replaces the snippet in a fresh copy and runs the entry's tests;
every one of them must fail.  An entry whose snippet does not occur exactly
once in its module fails too, so a refactor that moves the code must
retire or update its mutants on purpose.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # path under src/assortplan/
    snippet: str  # exact source text, occurring once in the module
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, each of which must fail


OPTIMIZE_ORACLE = "tests/test_optimize_oracle.py::test_engine_matches_oracle"
SORTED_ORACLE = "tests/test_optimize_oracle.py::test_sorted_path_matches_oracle"
SORTED_TIES = "tests/test_optimize_oracle.py::test_sorted_path_falls_back_on_exact_ties"
REBUILT_CATALOG = "tests/test_ranker_oracle.py::test_review_writes_match_a_rebuilt_catalog"
BOOL_SPANS = "tests/test_revenue.py::TestAttentionSpanDist::test_bool_spans_rejected"
MALFORMED_PMF = "tests/test_revenue.py::TestAttentionSpanDist::test_malformed_pmf_entries_rejected"
AUDIT = "tests/test_collusion.py::TestAuditRanking::"
SIM_ORACLE = "tests/test_simulator_oracle.py::"
OVERTAKING = SIM_ORACLE + "test_long_live_rerank_with_overtaking_leaders_matches_oracle"
RATED_RERANKS = "tests/test_ranker_oracle.py::test_reranks_after_rated_purchases_match_a_fresh_ranking"
FOREIGN_PAIR = AUDIT + "test_adjacent_foreign_products_inverted_between_themselves"
ARGV = "tests/test_cli.py::TestArgv::"
RECOMPUTED = "tests/test_ranker_oracle.py::test_recomputed_stage_2_matches_a_fresh_round"
NONFINITE = "tests/test_ranker_oracle.py::test_non_finite_and_signed_zero_writes_keep_a_fresh_order"
REFUSED = "tests/test_ranker_oracle.py::test_replay_refuses_fallbacks_non_finite_cutoffs_and_negative_prices"

MUTANTS = (
    Mutant(
        "sorted-path-no-swap-term",
        "revenue.py",
        "gap = min(gap, before * c[q] * c[p] * (r[q] - r[p]))",
        "pass",
        (SORTED_ORACLE,),
    ),
    Mutant(
        "sorted-path-no-mass-factor",
        "revenue.py",
        "gap = min(gap, mass * abs(take - skip))",
        "gap = min(gap, abs(take - skip))",
        (SORTED_TIES,),
    ),
    Mutant(
        "sorted-path-takes-ties",
        "revenue.py",
        "if value[p][j] > skip:",
        "if value[p][j] >= skip:",
        (SORTED_ORACLE,),
    ),
    Mutant(
        "sorted-path-no-r-tie-check",
        "revenue.py",
        "if any(a == b for a, b in zip(r, r[1:])):",
        "if False:",
        (SORTED_ORACLE,),
    ),
    Mutant(
        "sorted-path-zero-tolerance",
        "revenue.py",
        "tolerance = (16 * cap + 16) * 2.0**-53 * value[0][cap] + (cap + 10) ** 2 * 2.0**-1073 * scale",
        "tolerance = 0.0",
        (SORTED_ORACLE,),
    ),
    Mutant(
        "columns-accept-repeated-ids",
        "catalog.py",
        "if len(last) != self.universe_size:",
        "if False:",
        (
            "tests/test_catalog.py::TestRepeatedIds::test_every_engine_entry_point_refuses_it",
            "tests/test_catalog.py::TestRepeatedIds::test_the_first_id_listed_twice_is_named",
        ),
    ),
    Mutant(
        "pool-remove-drops-a-taken-row-again",
        "assortment.py",
        "if self.alive.item(row):",
        "if True:",
        ("tests/test_ranker_oracle.py::test_record_free_picks_and_removals_keep_the_pool_in_step",),
    ),
    Mutant(
        "search-counts-one-slot-too-deep",
        "revenue.py",
        "enumeration_count(count - m, depth - m)",
        "enumeration_count(count - m, depth - m + 1)",
        (OPTIMIZE_ORACLE,),
    ),
    Mutant(
        "subset-dp-reads-the-next-slots-tail",
        "revenue.py",
        "gains = [tail[t + 1] * lam_table[t]",
        "gains = [tail[min(t + 2, depth)] * lam_table[t]",
        (OPTIMIZE_ORACLE, "tests/test_optimize_oracle.py::test_benchmark_sized_random_catalogs"),
    ),
    Mutant(
        "floor-seeded-from-the-dp-float-optimum",
        "revenue.py",
        "seed = _exact_score(path, lam, prices, shares, dist)",
        "seed = value[0]",
        (OPTIMIZE_ORACLE,),
    ),
    Mutant(
        "bound-drops-its-rounding-factor",
        "revenue.py",
        "* rise + tiny < floor:",
        "+ tiny < floor:",
        ("tests/test_optimize_oracle.py::test_bound_keeps_a_subtree_within_its_rounding_allowance",),
    ),
    Mutant(
        "candidates-without-the-underflow-allowance",
        "revenue.py",
        "if not approx + tiny < floor:",
        "if not approx < floor:",
        ("tests/test_optimize_oracle.py::test_subnormal_approximation_does_not_hide_a_shorter_tie",),
    ),
    Mutant(
        "search-seeds-a-non-finite-score",
        "revenue.py",
        "if math.isfinite(seed) else",
        "if True else",
        ("tests/test_optimize_oracle.py::test_infinite_approximation_does_not_hide_a_finite_winner",),
    ),
    Mutant(
        "search-left-in-a-reference-cycle",
        "revenue.py",
        "    del search  #",
        "    pass  #",
        ("tests/test_optimize_oracle.py::test_search_leaves_no_reference_cycle",),
    ),
    Mutant(
        "stage-1-key-without-the-id-tie-break",
        "assortment.py",
        "-self.reviews.item(row), self.ids[row]",
        "-self.reviews.item(row), 0",
        (REBUILT_CATALOG,),
    ),
    Mutant(
        "stage-1-key-compares-nan-ratings",
        "assortment.py",
        "0.0 if r != r else -r",
        "-r",
        (NONFINITE,),
    ),
    Mutant(
        "one-sided-check-on-the-wrong-side",
        "assortment.py",
        "if key < before and at and key < self._key(order.item(at - 1)):",
        "if key > before and at and key < self._key(order.item(at - 1)):",
        (NONFINITE, REBUILT_CATALOG),
    ),
    Mutant(
        "insertion-one-place-low",
        "assortment.py",
        "dest = bisect_left(order, key, 0, at - 1, key=self._key)",
        "dest = bisect_left(order, key, 0, at - 1, key=self._key) + 1",
        (NONFINITE, REBUILT_CATALOG),
    ),
    Mutant(
        "insertion-one-place-high",
        "assortment.py",
        "dest = bisect_left(order, key, at + 2, len(order), key=self._key) - 1",
        "dest = bisect_left(order, key, at + 2, len(order), key=self._key) - 2",
        (NONFINITE, REBUILT_CATALOG),
    ),
    Mutant(
        "write-keeps-the-rows-cached-value",
        "assortment.py",
        "was = cache.pop(row, None)",
        "was = cache.get(row)",
        ("tests/test_ranker_oracle.py::test_scaled_value_cache_keeps_both_sums_exact",),
    ),
    Mutant(
        "ties-broken-by-listing-order",
        "assortment.py",
        "rows = np.array(sorted(range(catalog.universe_size), key=columns.ids.__getitem__))",
        "rows = np.arange(catalog.universe_size)",
        (
            "tests/test_metamorphic.py::test_listing_order_leaves_every_output_unchanged",
            "tests/test_ranker_oracle.py::test_shuffled_catalog_ranks_identically",
        ),
    ),
    Mutant(
        "stage-2-price-mass-plus-one",
        "assortment.py",
        "mass = _exact_sum(c.price[shortlist])",
        "mass = _exact_sum(c.price[shortlist]) + 1.0",
        ("tests/test_metamorphic.py::test_power_of_two_prices_keep_the_ranking",),
    ),
    Mutant(
        "ranker-reads-revenue-shares",
        "assortment.py",
        "self.price = columns.price\n",
        "self.price = columns.price * columns.share\n",
        ("tests/test_acceptance.py::test_criterion_07_as_a_property",),
    ),
    Mutant(
        "mixture-value-rounded-to-9-decimals",
        "revenue.py",
        "return math.fsum(h * cumulative[min(y, len(terms))] for y, h in dist.pmf)",
        "return round(math.fsum(h * cumulative[min(y, len(terms))] for y, h in dist.pmf), 9)",
        ("tests/test_metamorphic.py::test_power_of_two_prices_scale_optimize_values",),
    ),
    Mutant(
        "search-stops-one-slot-short",
        "revenue.py",
        "if d + 1 < reach and not",
        "if d + 2 < reach and not",
        (OPTIMIZE_ORACLE,),
    ),
    Mutant(
        "deterministic-span-accepts-a-bool",
        "revenue.py",
        "if isinstance(span, bool) or not isinstance(span, int) or span < 1:\n"
        "            raise ValueError(f\"span must",
        "if not isinstance(span, int) or span < 1:\n            raise ValueError(f\"span must",
        (BOOL_SPANS,),
    ),
    Mutant(
        "pmf-span-accepts-a-bool",
        "revenue.py",
        "if isinstance(span, bool) or not isinstance(span, int) or span < 1:\n"
        "                raise ValueError(f\"span values",
        "if not isinstance(span, int) or span < 1:\n                raise ValueError(f\"span values",
        (BOOL_SPANS,),
    ),
    Mutant(
        "audit-delta-rounded-to-cents",
        "collusion.py",
        "delta = expected_revenue(swapped, dist) - expected_revenue(inputs, dist)",
        "delta = round(expected_revenue(swapped, dist) - expected_revenue(inputs, dist), 2)",
        ("tests/test_metamorphic.py::test_power_of_two_prices_scale_audit_deltas",),
    ),
    Mutant(
        "rerank-keeps-slot-chances-of-the-old-slate",
        "simulator.py",
        "slate = ranked\n"
        "                    rows, chance = _displayed(catalog, slate, reach, *state_of, cfg)",
        "rows, fresh = _displayed(catalog, ranked, reach, *state_of, cfg)\n"
        "                    chance = fresh if slate is None else chance\n"
        "                    slate = ranked",
        ("tests/test_simulator_oracle.py::test_engine_matches_oracle",),
    ),
    Mutant(
        "writer-never-truncates",
        "cli.py",
        "out.truncate()",
        "pass",
        ("tests/test_cli.py::TestSimulate::test_outputs_overwrite_longer_files_in_place",),
    ),
    Mutant(
        "trace-written-before-the-summary-is-encoded",
        "cli.py",
        '    document = (report + "\\n").encode("utf-8")\n',
        '    _overwrite(out_dir / "trace.tsv", table)\n    document = (report + "\\n").encode("utf-8")\n',
        ("tests/test_cli.py::TestSimulate::test_a_failed_encode_leaves_both_files_as_they_were",),
    ),
    Mutant(
        "live-run-needs-rating-parameters-off-the-slate",
        "simulator.py",
        "reachable = np.array([catalog.row(pid) for pid in cfg.slate], dtype=np.intp)",
        "reachable = np.arange(catalog.universe_size)",
        ("tests/test_metamorphic.py::test_products_outside_a_fixed_slate_change_no_simulation",),
    ),
    Mutant(
        "catalog-not-frozen",
        "catalog.py",
        "@dataclass(frozen=True, init=False)",
        "@dataclass(frozen=False, init=False)",
        ("tests/test_catalog.py::TestLazyProducts::test_catalog_surface_is_unchanged",),
    ),
    Mutant(
        "point-span-spends-a-uniform-on-its-span",
        "simulator.py",
        'self.uses_uniform = dist.kind != "deterministic"',
        "self.uses_uniform = True",
        ("tests/test_simulator_oracle.py::test_engine_matches_oracle",),
    ),
    Mutant(
        "exact-score-reads-slot-one-demand",
        "revenue.py",
        "lambdas = [lam[slot][i] for slot, i in enumerate(rows)]",
        "lambdas = [lam[0][i] for i in rows]",
        ("tests/test_optimize_oracle.py::test_engine_matches_oracle",),
    ),
    Mutant(
        "optimize-accepts-a-longer-compare-slate",
        "revenue.py",
        "if compare is not None and len(compare) > slot_count:",
        "if False:",
        (
            "tests/test_optimize_oracle.py::test_refused_before_any_work",
            "tests/test_cli.py::TestOptimize::test_compare_longer_than_the_slots_rejected",
        ),
    ),
    Mutant(
        "fixed-slate-accepts-slot-count",
        "simulator.py",
        "elif cfg.slot_count is not None:",
        "elif False:",
        ("tests/test_cli.py::TestSimulate::test_config_refusals",),
    ),
    Mutant(
        "pmf-probability-type-unchecked",
        "revenue.py",
        "if isinstance(prob, bool) or not isinstance(prob, Real) or not 0 <= prob <= sys.float_info.max:",
        "if not 0 <= prob <= sys.float_info.max:",
        (MALFORMED_PMF,),
    ),
    Mutant(
        "pmf-probability-int-past-float-range",
        "revenue.py",
        "0 <= prob <= sys.float_info.max:",
        "0 <= prob < math.inf:",
        (MALFORMED_PMF,),
    ),
    Mutant(
        "horizon-past-the-counter-word",
        "simulator.py",
        "if cfg.horizon >= 2**64:",
        "if cfg.horizon > 2**64:",
        ("tests/test_simulator.py::TestValidation::test_horizon_out_of_range_rejected",),
    ),
    Mutant(
        "pmf-spans-sorted-before-their-check",
        "revenue.py",
        "for span, _ in pairs:  # before sorting",
        "for span, _ in sorted(pairs):  # before sorting",
        (MALFORMED_PMF,),
    ),
    Mutant(
        "substitution-reads-any-slot",
        "collusion.py",
        'require_int("slot", slot, least=1)\n    if slot > len(slate):',
        "if not 1 <= slot <= len(slate):",
        ("tests/test_collusion.py::TestSubstitutionEffect::test_slot_out_of_range_rejected",),
    ),
    Mutant(
        "audit-ranks-until-every-displayed-product-is-placed",
        "collusion.py",
        "while len(compliant) and (open_pairs or len(ref_pos) < slot_count):",
        "while len(compliant) and (set(displayed) - set(ref_pos) or len(ref_pos) < slot_count):",
        (AUDIT + "test_compliant_order_stops_once_every_displayed_pair_is_ordered",),
    ),
    Mutant(
        "audit-stops-with-a-pair-unordered",
        "collusion.py",
        "open_pairs = {pair for pair in open_pairs if pid not in pair}",
        "open_pairs = set()",
        (FOREIGN_PAIR, AUDIT + "test_order_violations_match_the_full_compliant_order"),
    ),
    Mutant(
        "audit-ranks-an-unplaced-product-first",
        "collusion.py",
        "if ref_pos.get(first, math.inf) > ref_pos.get(second, math.inf):",
        "if ref_pos.get(first, -1) > ref_pos.get(second, -1):",
        (FOREIGN_PAIR,),
    ),
    Mutant(
        "replay-without-the-stage-1-bound",
        "assortment.py",
        "if not math.isfinite(cutoff1) or math.ceil(cutoff1) != bound1:",
        "if not math.isfinite(cutoff1):",
        (RATED_RERANKS,),
    ),
    Mutant(
        "replay-skips-the-stage-1-check-after-a-write",
        "assortment.py",
        "            moved = True\n",
        "",
        (RATED_RERANKS,),
    ),
    Mutant(
        "replay-without-the-pass-status-check",
        "assortment.py",
        "flipped or (count >= bound2) != passed",
        "flipped",
        (RECOMPUTED,),
    ),
    Mutant(
        "recompute-keeps-the-recorded-passers",
        "assortment.py",
        "passers = record.shortlist[c.reviews[record.shortlist] >= math.ceil(cutoff2)]",
        "passers = record.passers",
        (RECOMPUTED,),
    ),
    Mutant(
        # The next replay would read each row's listed and pass status off the old cutoffs.
        "recompute-leaves-the-stage-2-bound-stale",
        "assortment.py",
        "record.cutoff1, record.cutoff2 = cutoff1, cutoff2",
        "pass",
        (RECOMPUTED,),
    ),
    Mutant(
        "replay-without-its-refusal-guard",
        "assortment.py",
        "if not (record.passers.size and c.replayable and math.isfinite(cutoff1) and math.isfinite(cutoff2)):",
        "if False:",
        (REFUSED,),
    ),
    Mutant(
        # The first unwritten passer in recorded order is taken as the least of
        # the unwritten ones: stale once a row written at an earlier re-rank moved.
        "replay-picks-from-the-recorded-passer-order",
        "assortment.py",
        "record.pick = record.passers.item(rank[record.passers].argmin())",
        "moved = set(written)\n"
        "            passers = record.passers.tolist()\n"
        "            rest = [row for row in passers if row not in moved][:1]\n"
        "            record.pick = min([row for row in passers if row in moved] + rest, key=rank.item)",
        (OVERTAKING,),
    ),
    Mutant(
        "replayed-pick-not-stored",
        "assortment.py",
        "record.pick = record.passers.item(rank[record.passers].argmin())",
        "self.remove(record.passers.item(rank[record.passers].argmin()))\n"
        "            return record.passers.item(rank[record.passers].argmin())",
        (OVERTAKING,),
    ),
    Mutant(
        "rerank-reads-the-old-counts-after-the-writes",
        "simulator.py",
        "written[row] = self.columns.reviews.item(row)\n"
        "            self.columns.set_review_state(row, means[row], counts[row])",
        "self.columns.set_review_state(row, means[row], counts[row])\n"
        "            written[row] = self.columns.reviews.item(row)",
        (RATED_RERANKS,),
    ),
    Mutant(
        "replay-continues-after-a-changed-pick",
        "simulator.py",
        "replaying = replaying and row == previous[i]",
        "replaying = replaying",
        (RATED_RERANKS, OVERTAKING),
    ),
    Mutant(
        "lambda-table-drops-pinned-rows",
        "revenue.py",
        "table = [[row[1] for row in rows] for _ in range(depth)]",
        "table = [[0.0 for row in rows] for _ in range(depth)]",
        ("tests/test_optimize_oracle.py::test_lambda_table_matches_a_per_pair_loop",),
    ),
    Mutant(
        # np.exp may differ from math.exp by an ulp, and the logistic keeps it.
        "lambda-table-uses-np-exp",
        "revenue.py",
        "row[i] = logistic(chi := quality[i] - step)",
        "e = float(np.exp(-abs(chi := quality[i] - step)))  # demand.logistic's operations\n"
        "                row[i] = min(max((1.0 if chi >= 0 else e) / (1.0 + e), 5e-324), 1 - 2**-53)",
        ("tests/test_optimize_oracle.py::test_lambda_table_bits_on_a_logit_catalog",),
    ),
    Mutant(
        "lambda-table-warns-in-row-order",
        "revenue.py",
        "for i in [*range(slot, len(rows)), *range(slot - 1, -1, -1)]:",
        "for i in range(len(rows)):",
        (
            "tests/test_optimize_oracle.py::test_utility_scale_warnings_come_in_walk_order",
            "tests/test_optimize_oracle.py::test_utility_scale_warnings_match_oracle_order",
        ),
    ),
    Mutant(
        "loader-accept-test-drops-the-rating-rule",
        "catalog.py",
        "if inside.all() and not (out_of_range.any() or rating[reviews == 0].any()):",
        "if inside.all() and not out_of_range.any():",
        (
            "tests/test_catalog.py::TestLoadCatalog::test_rating_without_reviews_rejected",
            "tests/test_catalog_oracle.py::test_each_rule_names_the_middle_row",
        ),
    ),
    Mutant(
        "loader-accept-test-drops-the-review-range-rule",
        "catalog.py",
        "if inside.all() and not (out_of_range.any() or rating[reviews == 0].any()):",
        "if inside.all() and not rating[reviews == 0].any():",
        ("tests/test_catalog_oracle.py::test_each_rule_names_the_middle_row",),
    ),
    Mutant(
        # Same bytes, one C-encoder call per id: the rank --trace report loses the C path.
        "report-writer-encodes-long-lists-item-by-item",
        "cli.py",
        "if _SCALARS.issuperset(map(type, items)):",
        "if False:",
        ("tests/test_cli.py::test_long_lists_cost_no_encoder_call_per_item",),
    ),
    Mutant(
        "require-number-lets-an-int-beyond-float-range-through",
        "catalog.py",
        "if isinstance(value, int) and _finite(value) is None:",
        "if False:",
        (
            "tests/test_catalog.py::TestBeliefPrior::test_ints_beyond_float_range_rejected",
            "tests/test_demand.py::TestSearchCost::test_int_slope_beyond_float_range_rejected",
            "tests/test_cli.py::TestNonFiniteInput::test_int_beyond_float_range_rejected",
            "tests/test_cli_fuzz.py::test_drawn_simulate_configs_exit_cleanly",
        ),
    ),
    Mutant(
        "integer-rule-takes-a-bool",
        "catalog.py",
        "if isinstance(value, bool) or not isinstance(value, int):",
        "if not isinstance(value, int):",
        (
            "tests/test_simulator.py::TestValidation::test_values_are_taken_as_typed",
            "tests/test_assortment.py::TestTwoStageSelect::test_library_refusals",
            AUDIT + "test_slot_count_below_one_rejected",
        ),
    ),
    Mutant(
        "optimize-reads-any-slot-count",
        "revenue.py",
        'require_int("slot_count", slot_count, least=1)',
        'if slot_count < 1:\n        raise ValueError(f"slot_count must be >= 1, got {slot_count}")',
        ("tests/test_optimize_oracle.py::test_refused_before_any_work",),
    ),
    Mutant(
        "sim-config-reads-a-string-as-a-slate",
        "simulator.py",
        "if not (isinstance(cfg.slate, tuple) and all(isinstance(pid, str) for pid in cfg.slate)):",
        "if False:",
        ("tests/test_simulator.py::TestValidation::test_values_are_taken_as_typed",),
    ),
    Mutant(
        "select-reads-the-pool-in-catalog-order",
        "assortment.py",
        "live = c.order[self.alive.take(c.order)]",
        "live = self.alive.nonzero()[0]",
        (REBUILT_CATALOG, "tests/test_ranker_oracle.py::test_shuffled_catalog_ranks_identically"),
    ),
    Mutant(
        "move-leaves-position-stale",
        "assortment.py",
        "self.position[order[low:high]] = np.arange(low, high)",
        "pass",
        (REBUILT_CATALOG, NONFINITE, "tests/test_ranker_oracle.py::test_two_adjacent_written_rows_that_swap_are_re_sorted"),
    ),
    Mutant(
        # numpy's unicode compare ignores trailing NULs, so "B\x00" ties "B".
        "ids-ordered-by-a-numpy-unicode-sort",
        "assortment.py",
        "rows = np.array(sorted(range(catalog.universe_size), key=columns.ids.__getitem__))",
        'rows = np.array(columns.ids).argsort(kind="stable")',
        ("tests/test_ranker_oracle.py::test_named_cases_match_oracle",),
    ),
    Mutant(
        "argv-table-accepts-an-abbreviation",
        "cli.py",
        "action = options.get(token)",
        "action = options.get(token) or next((a for s, a in options.items() if s.startswith(token)), None)",
        (ARGV + "test_other_spellings_are_left_to_argparse",),
    ),
    Mutant(
        "argv-table-skips-the-required-check",
        "cli.py",
        "if required <= given.keys() else None",
        "if True else None",
        (ARGV + "test_usage_errors_are_argparse_s",),
    ),
    Mutant(
        "argv-table-skips-the-choices-check",
        "cli.py",
        "if action.choices is not None and value not in action.choices:",
        "if False:",
        (ARGV + "test_usage_errors_are_argparse_s",),
    ),
    Mutant(
        "require-number-lets-a-bool-through",
        "catalog.py",
        "if isinstance(value, bool) or not isinstance(value, Real):",
        "if not isinstance(value, Real):",
        (
            "tests/test_catalog.py::TestBeliefPrior::test_values_are_taken_as_typed",
            "tests/test_demand.py::TestSearchCost::test_slope_is_taken_as_typed",
        ),
    ),
    Mutant(
        "sim-config-keeps-null-values",
        "cli.py",
        "values = {key: value for key, value in doc.items() if value is not None}",
        "values = dict(doc)",
        ("tests/test_cli.py::TestSimulate::test_null_optional_values_take_the_defaults",),
    ),
    Mutant(
        "sim-config-seed-replaced-before-its-check",
        "cli.py",
        '    require_int("seed", values["seed"])  # refused even where --seed replaces it\n'
        "    if seed_override is not None:\n"
        '        values["seed"] = seed_override\n',
        "    if seed_override is not None:\n"
        '        values["seed"] = seed_override\n'
        '    require_int("seed", values["seed"])\n',
        ("tests/test_cli.py::TestSimulate::test_config_seed_refused_under_seed_override",),
    ),
    Mutant(
        "optimize-lets-a-nan-price-through",
        "revenue.py",
        "if not value >= 0:  # false for a NaN too",
        "if value < 0:",
        ("tests/test_revenue.py::TestBruteForceOptimize::test_nan_values_rejected",),
    ),
    Mutant(
        # optimize and expected-revenue then load the simulator (and philox) too.
        "cli-imports-the-simulator-eagerly",
        "cli.py",
        "from .demand import CostModel\n",
        "from .demand import CostModel\nfrom .simulator import SimConfig, simulate, summarize, trace_table  # noqa: F401\n",
        ("tests/test_lazy_imports.py::test_request_loads_only_the_modules_it_runs",),
    ),
    Mutant(
        # The handler then runs the ranker itself, not a value set on cli.two_stage_select.
        "rank-handler-imports-its-ranker-locally",
        "cli.py",
        "    ranking, trace = _cli.two_stage_select(catalog, args.slots, args.policy)\n",
        "    from .assortment import two_stage_select\n"
        "    ranking, trace = two_stage_select(catalog, args.slots, args.policy)\n",
        ("tests/test_lazy_imports.py::test_a_value_set_before_the_first_request_is_what_runs",),
    ),
    Mutant(
        "belief-prior-keeps-an-int",
        "catalog.py",
        "object.__setattr__(self, name, float(value))",
        "object.__setattr__(self, name, value)",
        ("tests/test_catalog.py::TestBeliefPrior::test_int_values_are_stored_as_floats",),
    ),
)


def _copy(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree: Path, tests: tuple[str, ...]) -> tuple[int, set[str], list[str]]:
    """Exit code, failed node ids and pytest's FAILED summary lines, for a run inside ``tree``."""
    command = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests]
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1", "COLUMNS": "200"}
    run = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = [line for line in run.stdout.splitlines() if line.startswith("FAILED ")]
    failed = {re.match(r"FAILED (\S+?)(?:\[| - |$)", line).group(1) for line in lines}
    return run.returncode, failed, lines


def check_snippets(mutants=MUTANTS) -> list[str]:
    """One message for each entry whose snippet does not occur exactly once."""
    problems = []
    for m in mutants:
        found = (ROOT / "src" / "assortplan" / m.module).read_text(encoding="utf-8").count(m.snippet)
        if found != 1:
            problems.append(f"{m.name}: snippet occurs {found} times in {m.module}")
    return problems


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    problems = [f"unknown mutant {name!r}" for name in sorted(unknown)] + check_snippets(chosen)
    if problems:
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory(prefix="assortplan-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        every_test = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        code, failed, _ = _pytest(base, every_test)
        if code != 0:
            print(f"unmutated copy fails (exit {code}): {sorted(failed)}")
            return 1
        survivors = 0
        for m in chosen:
            tree = Path(tmp) / m.name
            _copy(tree)
            path = tree / "src" / "assortplan" / m.module
            path.write_text(path.read_text(encoding="utf-8").replace(m.snippet, m.replacement), encoding="utf-8")
            _, failed, lines = _pytest(tree, m.tests)
            missed = [t for t in m.tests if t not in failed]
            survivors += bool(missed)
            print(f"{'SURVIVED' if missed else 'killed  '} {m.name}" + (f" (passed: {missed})" if missed else ""))
            for line in lines:
                print(f"    {line[:200]}")
            shutil.rmtree(tree)
        print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
