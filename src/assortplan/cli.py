"""Command-line front end.

Subcommands: ``rank``, ``expected-revenue``, ``optimize``, ``audit``,
``simulate``.  Every report embeds a run manifest (command, resolved
config, catalog digest, engine version) so outputs are self-describing and
replayable; text reports carry it as a trailing ``# manifest`` line,
structured reports as a ``manifest`` key.

Exit codes: 0 success or clean audit, 1 audit findings, 2 invalid input,
3 enumeration-guard or internal-consistency violation.

Span specs follow ``y=3`` (deterministic) or ``pmf=1:0.5,3:0.5``.  The
simulate config is a JSON document: ``horizon``, ``seed``, ``span``, and
``prior`` {mean, prior_var, noise_var} are required; choose a display
policy via ``slate`` (id array) or ``rerank_every`` plus ``slot_count``;
optional ``cost_slope``, ``policy``, ``freeze_beliefs``, ``clamp_ratings``.
Simulate writes ``trace.tsv`` (tab-separated, one line per customer) and
``summary.json`` into the output directory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

from . import __version__
from .assortment import POLICIES, POLICY_STAGE1_ORDER, two_stage_select
from .catalog import BeliefPrior, Catalog, CatalogError, load_catalog
from .collusion import audit_ranking, findings_report
from .demand import CostModel
from .revenue import (
    AttentionSpanDist,
    EnumerationGuardError,
    brute_force_optimize,
    evaluate_slate,
    resolve_inputs,
)
from .simulator import SimConfig, simulate, summary_document, trace_table

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


def _fmt(value: float) -> str:
    return format(value, ".6g")


@dataclass(frozen=True)
class RunManifest:
    command: str
    config: dict
    input_digest: str
    version: str

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "input_digest": self.input_digest,
            "version": self.version,
        }


def parse_span_spec(spec: str) -> AttentionSpanDist:
    """Parse ``y=N`` or ``pmf=SPAN:PROB,SPAN:PROB,...``."""
    if spec.startswith("y="):
        return AttentionSpanDist.deterministic(int(spec[2:]))
    if spec.startswith("pmf="):
        entries = {}
        for piece in spec[4:].split(","):
            span_text, _, prob_text = piece.partition(":")
            if not prob_text:
                raise ValueError(f"bad pmf entry {piece!r} in span spec {spec!r}")
            span = int(span_text)
            if span in entries:
                raise ValueError(f"repeated span {span} in span spec {spec!r}")
            entries[span] = float(prob_text)
        return AttentionSpanDist.from_pmf(entries)
    raise ValueError(f"span spec must start with 'y=' or 'pmf=', got {spec!r}")


def parse_omega_spec(spec: str) -> float:
    if not spec.startswith("uniform:"):
        raise ValueError(f"omega spec must look like 'uniform:1.0', got {spec!r}")
    value = float(spec.split(":", 1)[1])
    if not 0 < value <= 1:
        raise ValueError(f"omega must lie in (0, 1], got {value}")
    return value


def parse_prior_spec(spec: str) -> BeliefPrior:
    parts = spec.split(",")
    if len(parts) != 3:
        raise ValueError(f"prior spec must be 'MEAN,PRIOR_VAR,NOISE_VAR', got {spec!r}")
    return BeliefPrior(float(parts[0]), float(parts[1]), float(parts[2]))


def _read_catalog(path: str) -> tuple[Catalog, str]:
    # Plain open(), not pathlib: pathlib interns every path part, and that
    # churn grows a long-lived process that serves many requests.
    with open(path, "rb") as handle:
        data = handle.read()
    return load_catalog(data), hashlib.sha256(data).hexdigest()


def _parse_slate(text: str) -> list[str]:
    ids = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not ids:
        raise ValueError(f"empty slate spec {text!r}")
    return ids


_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _flat_encoder(pad: str):
    """json's C encoder, with each item of a container on its own line at ``pad``."""
    return json.JSONEncoder(separators=(",\n" + pad, ": ")).encode


def _json_indented(value, pad: str = "") -> str:
    """Exactly ``json.dumps(value, indent=2)``, at C-encoder speed for long lists.

    ``json`` falls back to its pure-Python encoder whenever ``indent`` is
    set.  Here a list or dict of scalars goes through the C encoder in one
    call, with a newline and the indent as its item separator; only nested
    containers are walked in Python.  Dict keys must be strings, as every
    report key is.
    """
    if isinstance(value, dict):
        items, brackets = value.values(), "{}"
    elif isinstance(value, (list, tuple)):
        items, brackets = value, "[]"
    else:
        return json.dumps(value)
    if not value:
        return brackets
    inner = pad + "  "
    if _SCALARS.issuperset(map(type, items)):
        body = _flat_encoder(inner)(value)[1:-1]
    elif brackets == "{}":
        body = (",\n" + inner).join(
            f"{encode_basestring_ascii(k)}: {_json_indented(v, inner)}" for k, v in value.items()
        )
    else:
        body = (",\n" + inner).join(_json_indented(v, inner) for v in value)
    return f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}"


def _emit(args, manifest: RunManifest, body: dict, text_lines: list[str]) -> None:
    if args.format == "structured":
        print(_json_indented({"manifest": manifest.to_dict(), **body}))
    else:
        for line in text_lines:
            print(line)
        print(f"# manifest {json.dumps(manifest.to_dict(), separators=(',', ':'))}")


def _cmd_rank(args) -> int:
    catalog, digest = _read_catalog(args.catalog)
    ranking, trace = two_stage_select(catalog, args.slots, args.policy)
    manifest = RunManifest(
        command="rank",
        config={"slots": args.slots, "policy": args.policy, "trace": bool(args.trace)},
        input_digest=digest,
        version=__version__,
    )
    body: dict = {"ranking": list(ranking.slots)}
    lines = [" ".join(ranking.slots)]
    # Each format builds only its own trace: a round lists thousands of ids.
    if args.trace and args.format == "structured":
        body["trace"] = trace.to_report()
    elif args.trace:
        for i, rec in enumerate(trace.iterations, start=1):
            cutoff1 = _fmt(rec.stage1_threshold) if rec.stage1_threshold is not None else "-"
            cutoff2 = _fmt(rec.stage2_threshold) if rec.stage2_threshold is not None else "-"
            lines.append(
                f"iteration {i}: stage1_threshold {cutoff1} "
                f"stage1_order {','.join(rec.stage1_order) or '-'} "
                f"stage2_threshold {cutoff2} "
                f"stage2_passers {','.join(rec.stage2_passers) or '-'} "
                f"selected {rec.selected}"
                + (" (fallback)" if rec.fallback_used else "")
            )
    _emit(args, manifest, body, lines)
    return EXIT_OK


def _demand_args(args) -> dict:
    return {
        "prior": parse_prior_spec(args.prior) if args.prior else None,
        "cost": CostModel(args.cost_slope) if args.cost_slope is not None else None,
    }


def _cmd_expected_revenue(args) -> int:
    catalog, digest = _read_catalog(args.catalog)
    slate = _parse_slate(args.slate)
    dist = parse_span_spec(args.span)
    omega = parse_omega_spec(args.omega) if args.omega else None
    inputs = resolve_inputs(catalog, slate, omega=omega, **_demand_args(args))
    evaluation = evaluate_slate(inputs, dist)
    manifest = RunManifest(
        command="expected-revenue",
        config={"slate": slate, "span": args.span, "omega": args.omega},
        input_digest=digest,
        version=__version__,
    )
    body = {
        "expected_revenue": evaluation.expected_revenue,
        "per_slot_purchase_prob": list(evaluation.per_slot_purchase_prob),
        "no_purchase_prob": evaluation.no_purchase_prob,
    }
    lines = [f"expected_revenue {_fmt(evaluation.expected_revenue)}"]
    for slot, (pid, prob) in enumerate(
        zip(slate, evaluation.per_slot_purchase_prob), start=1
    ):
        lines.append(f"slot {slot} {pid} purchase_prob {_fmt(prob)}")
    lines.append(f"no_purchase {_fmt(evaluation.no_purchase_prob)}")
    _emit(args, manifest, body, lines)
    return EXIT_OK


def _cmd_optimize(args) -> int:
    catalog, digest = _read_catalog(args.catalog)
    dist = parse_span_spec(args.span)
    omega = parse_omega_spec(args.omega) if args.omega else None
    compare = _parse_slate(args.compare) if args.compare else None
    result = brute_force_optimize(
        catalog, args.slots, dist, omega=omega, compare=compare, **_demand_args(args)
    )
    manifest = RunManifest(
        command="optimize",
        config={
            "slots": args.slots,
            "span": args.span,
            "omega": args.omega,
            "compare": compare,
        },
        input_digest=digest,
        version=__version__,
    )
    body = {
        "slate": list(result.slate),
        "value": result.value,
        "enumerated": result.enumerated,
    }
    lines = [
        f"slate {' '.join(result.slate)}",
        f"value {_fmt(result.value)}",
        f"enumerated {result.enumerated}",
    ]
    if result.gap is not None:
        body["compare_value"] = result.compare_value
        body["gap"] = result.gap
        lines.append(f"compare_value {_fmt(result.compare_value)}")
        lines.append(f"gap {_fmt(result.gap)}")
    _emit(args, manifest, body, lines)
    return EXIT_OK


def _cmd_audit(args) -> int:
    catalog, digest = _read_catalog(args.catalog)
    displayed = _parse_slate(args.displayed)
    dist = parse_span_spec(args.span)
    omega = parse_omega_spec(args.omega) if args.omega else None
    findings = audit_ranking(
        catalog,
        displayed,
        slot_count=len(displayed),
        dist=dist,
        policy=args.policy,
        omega=omega,
        **_demand_args(args),
    )
    manifest = RunManifest(
        command="audit",
        config={
            "displayed": displayed,
            "span": args.span,
            "omega": args.omega,
            "policy": args.policy,
        },
        input_digest=digest,
        version=__version__,
    )
    body = {"findings": findings_report(findings)}
    lines = [
        f"finding slot {f.slot} product {f.product_id} {f.kind}: {f.detail}"
        for f in findings
    ]
    lines.append(f"findings {len(findings)}")
    _emit(args, manifest, body, lines)
    return EXIT_FINDINGS if findings else EXIT_OK


_NUMBER = (int, float)


def _config_value(doc: dict, key: str, kinds: tuple[type, ...], what: str, default=None):
    """``doc[key]``, or ``default`` when absent or null, if it is of one of ``kinds``.

    Nothing is coerced: a float where an integer belongs, a string where a
    number or boolean belongs, or a number where a boolean belongs is an
    error (JSON booleans are ints to Python, so they count only as bool).
    """
    value = doc.get(key)
    if value is None:
        return default
    if isinstance(value, bool) != (bool in kinds) or not isinstance(value, kinds):
        raise ValueError(f"simulation config: {key!r} must be {what}, got {value!r}")
    return value


def _config_list(
    doc: dict, key: str, kinds: tuple[type, ...], what: str, length: int | None = None
):
    """``doc[key]`` as a list whose items are all of ``kinds`` (None when absent or null)."""
    items = _config_value(doc, key, (list,), what)
    if items is not None and (
        (length is not None and len(items) != length)
        or not all(isinstance(v, kinds) and not isinstance(v, bool) for v in items)
    ):
        raise ValueError(f"simulation config: {key!r} must be {what}, got {items!r}")
    return items


def _load_sim_config(path: str, seed_override: int | None) -> SimConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed simulation config: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("simulation config must be a JSON object")
    for key in ("horizon", "seed", "span", "prior"):
        if doc.get(key) is None:
            raise ValueError(f"simulation config missing required key {key!r}")
    prior_doc = _config_value(doc, "prior", (dict,), "an object with mean, prior_var, noise_var")
    prior_fields = ("mean", "prior_var", "noise_var")
    for key in prior_fields:
        if prior_doc.get(key) is None:
            raise ValueError(f"simulation config: 'prior' missing required key {key!r}")
    prior = BeliefPrior(
        *(float(_config_value(prior_doc, key, _NUMBER, "a number")) for key in prior_fields)
    )
    clamp = _config_list(doc, "clamp_ratings", _NUMBER, "a [low, high] number pair", length=2)
    slate = _config_list(doc, "slate", (str,), "an array of product ids")
    seed = _config_value(doc, "seed", (int,), "an integer")
    return SimConfig(
        horizon=_config_value(doc, "horizon", (int,), "an integer"),
        seed=seed if seed_override is None else seed_override,
        dist=parse_span_spec(_config_value(doc, "span", (str,), "a span spec string")),
        prior=prior,
        cost=CostModel(float(_config_value(doc, "cost_slope", _NUMBER, "a number", default=0.1))),
        slate=tuple(slate) if slate is not None else None,
        rerank_every=_config_value(doc, "rerank_every", (int,), "an integer"),
        slot_count=_config_value(doc, "slot_count", (int,), "an integer"),
        policy=_config_value(doc, "policy", (str,), "a policy name", default=POLICY_STAGE1_ORDER),
        freeze_beliefs=_config_value(doc, "freeze_beliefs", (bool,), "true or false", default=False),
        clamp_ratings=(float(clamp[0]), float(clamp[1])) if clamp is not None else None,
    )


def _cmd_simulate(args) -> int:
    catalog, digest = _read_catalog(args.catalog)
    cfg = _load_sim_config(args.config, args.seed)
    trace = simulate(catalog, cfg)
    manifest = RunManifest(
        command="simulate",
        config={
            "config_path": args.config,
            "horizon": cfg.horizon,
            "seed": cfg.seed,
            "freeze_beliefs": cfg.freeze_beliefs,
        },
        input_digest=digest,
        version=__version__,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trace.tsv").write_text(trace_table(trace), encoding="utf-8")
    body = summary_document(trace)
    (out_dir / "summary.json").write_text(
        _json_indented({"manifest": manifest.to_dict(), **body}) + "\n", encoding="utf-8"
    )
    summary = trace.summary
    lines = [
        f"customers {cfg.horizon}",
        f"purchases {summary.purchase_count}",
        f"purchase_rate {_fmt(summary.purchase_rate)}",
        f"gross_revenue {_fmt(summary.gross_revenue)}",
        f"platform_revenue {_fmt(summary.platform_revenue)}",
        f"wrote {out_dir / 'trace.tsv'} and {out_dir / 'summary.json'}",
    ]
    _emit(args, manifest, body, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assortplan",
        description="Competitive assortment planning: rank, evaluate, audit, simulate.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--catalog", required=True, help="path to the catalog document")
    common.add_argument(
        "--format", choices=("text", "structured"), default="text", help="report format"
    )
    demand = argparse.ArgumentParser(add_help=False)
    demand.add_argument(
        "--prior",
        help="belief prior as 'MEAN,PRIOR_VAR,NOISE_VAR' for products without pinned demand",
    )
    demand.add_argument(
        "--cost-slope", type=float, help="linear position-cost slope (default 0.1)"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", parents=[common], help="two-stage ranking")
    p_rank.add_argument("--slots", type=int, required=True, help="number of display slots")
    p_rank.add_argument("--policy", choices=POLICIES, default=POLICY_STAGE1_ORDER)
    p_rank.add_argument("--trace", action="store_true", help="include the iteration trace")
    p_rank.set_defaults(func=_cmd_rank)

    p_rev = sub.add_parser(
        "expected-revenue", parents=[common, demand], help="evaluate a slate"
    )
    p_rev.add_argument("--slate", required=True, help="comma-separated product ids in order")
    p_rev.add_argument("--span", required=True, help="span spec: y=3 or pmf=1:0.5,3:0.5")
    p_rev.add_argument("--omega", help="uniform revenue-share override, e.g. uniform:1.0")
    p_rev.set_defaults(func=_cmd_expected_revenue)

    p_opt = sub.add_parser(
        "optimize", parents=[common, demand], help="exhaustive slate optimization"
    )
    p_opt.add_argument("--slots", type=int, required=True)
    p_opt.add_argument("--span", required=True)
    p_opt.add_argument("--omega")
    p_opt.add_argument("--compare", help="slate to report the optimality gap against")
    p_opt.set_defaults(func=_cmd_optimize)

    p_audit = sub.add_parser(
        "audit", parents=[common, demand], help="audit a displayed ranking"
    )
    p_audit.add_argument("--displayed", required=True, help="displayed slate, comma-separated")
    p_audit.add_argument("--span", required=True)
    p_audit.add_argument("--omega")
    p_audit.add_argument("--policy", choices=POLICIES, default=POLICY_STAGE1_ORDER)
    p_audit.set_defaults(func=_cmd_audit)

    p_sim = sub.add_parser("simulate", parents=[common], help="sequential market simulation")
    p_sim.add_argument("--config", required=True, help="path to the simulation config JSON")
    p_sim.add_argument("--out", required=True, help="output directory for trace and summary")
    p_sim.add_argument("--seed", type=int, help="override the config seed")
    p_sim.set_defaults(func=_cmd_simulate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing never changes it."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EnumerationGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ArithmeticError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        # An OSError's first argument is its errno: print the reason and the path.
        where = f": {exc.filename}" if exc.filename is not None else ""
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return EXIT_INPUT
    except (CatalogError, ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
