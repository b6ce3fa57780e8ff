"""Command-line front end.

Subcommands: ``rank``, ``expected-revenue``, ``optimize``, ``audit``,
``simulate``.  Every report embeds a run manifest (command, resolved
config, catalog digest, engine version) so outputs are self-describing and
replayable; text reports carry it as a trailing ``# manifest`` line,
structured reports as a ``manifest`` key.  A request imports only the
engine modules it runs, on first use: ``optimize`` and ``expected-revenue``
need ``catalog``, ``demand`` and ``revenue``; ``rank`` adds ``assortment``,
``audit`` adds it and ``collusion``, ``simulate`` it and ``simulator``.

Exit codes: 0 success or clean audit, 1 audit findings, 2 invalid input,
3 enumeration-guard or internal-consistency violation.  A plain command
line is read off a table of the parser's own actions; argparse reads any
other, so every usage line and argument error is argparse's.

Span specs follow ``y=3`` (deterministic) or ``pmf=1:0.5,3:0.5``.  The
simulate config is a JSON document: ``horizon``, ``seed``, ``span``, and
``prior`` {mean, prior_var, noise_var} are required; choose a display
policy via ``slate`` (id array) or ``rerank_every`` plus ``slot_count``;
optional ``cost_slope``, ``policy``, ``freeze_beliefs``, ``clamp_ratings``;
any other key, here or in ``prior``, is refused, and a null counts as absent.
Only this shape is checked here: each value goes to the library as typed (an
array ``slate`` or ``clamp_ratings`` as a tuple), whose checks name its field.
Each distinct warning prints once per request, as one ``warning: <message>`` line.
Simulate writes ``trace.tsv`` (tab-separated, one line per customer) and
``summary.json`` into the output directory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import warnings
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from . import __version__, _on_first_use
from .catalog import POLICIES, POLICY_STAGE1_ORDER, BeliefPrior, Catalog, CatalogError, load_catalog, require_int
from .demand import CostModel
from .revenue import (
    AttentionSpanDist,
    EnumerationGuardError,
    brute_force_optimize,
    evaluate_slate,
    resolve_inputs,
)

if TYPE_CHECKING:
    from .simulator import SimConfig, SimSummary

# Loaded on first use; handlers look each up on this module at call time, so a value set on it runs.
__getattr__ = _on_first_use(globals(), {
    "two_stage_select": "assortment", "audit_ranking": "collusion", "findings_report": "collusion",
    "SimConfig": "simulator", "simulate": "simulator", "summarize": "simulator", "trace_table": "simulator",
})
_cli = sys.modules[__name__]

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


def _fmt(value: float) -> str:
    return format(value, ".6g")


def _manifest(command: str, config: dict, digest: str) -> dict:
    """The run manifest every report embeds."""
    return {"command": command, "config": config, "input_digest": digest, "version": __version__}


def parse_span_spec(spec: str) -> AttentionSpanDist:
    """Parse ``y=N`` or ``pmf=SPAN:PROB,SPAN:PROB,...``."""
    if not isinstance(spec, str):
        raise ValueError(f"span spec must be a string, got {spec!r}")
    if spec.startswith("y="):
        return AttentionSpanDist.deterministic(int(spec[2:]))
    if spec.startswith("pmf="):
        pairs = []
        for piece in spec[4:].split(","):
            span_text, _, prob_text = piece.partition(":")
            if not prob_text:
                raise ValueError(f"bad pmf entry {piece!r} in span spec {spec!r}")
            pairs.append((int(span_text), float(prob_text)))
        return AttentionSpanDist.from_pmf(pairs)  # which refuses a repeated span
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
    """json's C encoder, made once per pad, with each container item on its own line at ``pad``."""
    default, separator = json.JSONEncoder().default, ",\n" + pad
    encode = c_make_encoder(None, default, encode_basestring_ascii, None, ": ", separator, False, False, True)
    return lambda value: "".join(encode(value, 0))


def _json_indented(value, pad: str = "") -> str:
    """Exactly ``json.dumps(value, indent=2)``, at C-encoder speed.

    ``json`` falls back to its pure-Python encoder whenever ``indent`` is
    set.  Here a scalar, and a list or dict of scalars, goes through the C
    encoder in one call, with a newline and the indent as its item
    separator; only other containers are walked in Python.  Dict keys must
    be strings, as every report key is.
    """
    if type(value) in _SCALARS or not isinstance(value, (dict, list, tuple)) or not value:
        return _flat_encoder("")(value)  # an empty container too
    items, brackets = (value.values(), "{}") if isinstance(value, dict) else (value, "[]")
    inner = pad + "  "
    if _SCALARS.issuperset(map(type, items)):
        body = _flat_encoder(inner)(value)[1:-1]
    else:  # each of a dict's values follows its key
        keys = [f"{encode_basestring_ascii(k)}: " for k in value] if brackets == "{}" else [""] * len(value)
        body = (",\n" + inner).join([key + _json_indented(v, inner) for key, v in zip(keys, items)])
    return f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}"


def _encoded(values: list) -> list[str]:
    """Each scalar as ``json.dumps`` writes it, from one C-encoder call; an
    encoded scalar never holds a raw newline, so the list splits back into items."""
    return _flat_encoder("")(values)[1:-1].split(",\n") if values else []


def _object_block(items: list[str]) -> str:
    """A JSON object one level down a report, from its encoded ``key: value`` items."""
    return "{\n    " + ",\n    ".join(items) + "\n  }" if items else "{}"


def _summary_json(manifest: dict, summary: SimSummary) -> str:
    """The simulate report, exactly as ``json.dumps(report, indent=2)`` writes it;
    the per-product blocks are written from the summary's id-ordered lists."""
    head = _json_indented(
        {
            "manifest": manifest,
            "gross_revenue": summary.gross_revenue,
            "platform_revenue": summary.platform_revenue,
            "purchase_count": summary.purchase_count,
            "purchase_rate": summary.purchase_rate,
            "per_product_purchases": dict(sorted(summary.per_product_purchases.items())),
        }
    )
    keys = _encoded(summary.ids)
    state = '{}: {{\n      "reviews": {},\n      "avg_rating": {}\n    }}'.format
    states = list(map(state, keys, _encoded(summary.review_counts), _encoded(summary.review_means)))
    posterior = list(map("{}: {}".format, keys, _encoded(summary.posterior)))
    return (
        f'{head[:-2]},\n  "final_states": {_object_block(states)},\n'
        f'  "posterior_means": {_object_block(posterior)}\n}}'
    )


def _emit(args, manifest: dict, body: dict | str, text_lines: list[str]) -> None:
    """Print the report; a str ``body`` is the structured report, already written."""
    if args.format == "structured":
        if not isinstance(body, str):
            body = _json_indented({"manifest": manifest, **body})
        print(body)
    else:
        for line in text_lines:
            print(line)
        print(f"# manifest {json.dumps(manifest, separators=(',', ':'))}")


def _cmd_rank(args) -> int:
    catalog, digest = _read_catalog(args.catalog)
    ranking, trace = _cli.two_stage_select(catalog, args.slots, args.policy)
    config = {"slots": args.slots, "policy": args.policy, "trace": bool(args.trace)}
    manifest = _manifest("rank", config, digest)
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
    per_slot, no_purchase, value = evaluate_slate(inputs, dist)
    config = {"slate": slate, "span": args.span, "omega": args.omega}
    manifest = _manifest("expected-revenue", config, digest)
    body = {
        "expected_revenue": value,
        "per_slot_purchase_prob": list(per_slot),
        "no_purchase_prob": no_purchase,
    }
    lines = [f"expected_revenue {_fmt(value)}"]
    for slot, (pid, prob) in enumerate(zip(slate, per_slot), start=1):
        lines.append(f"slot {slot} {pid} purchase_prob {_fmt(prob)}")
    lines.append(f"no_purchase {_fmt(no_purchase)}")
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
    config = {"slots": args.slots, "span": args.span, "omega": args.omega, "compare": compare}
    manifest = _manifest("optimize", config, digest)
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
    findings = _cli.audit_ranking(
        catalog,
        displayed,
        slot_count=len(displayed),
        dist=dist,
        policy=args.policy,
        omega=omega,
        **_demand_args(args),
    )
    config = {"displayed": displayed, "span": args.span, "omega": args.omega, "policy": args.policy}
    manifest = _manifest("audit", config, digest)
    body = {"findings": _cli.findings_report(findings)}
    lines = [
        f"finding slot {f.slot} product {f.product_id} {f.kind}: {f.detail}"
        for f in findings
    ]
    lines.append(f"findings {len(findings)}")
    _emit(args, manifest, body, lines)
    return EXIT_FINDINGS if findings else EXIT_OK


_CONFIG_KEYS = ("horizon", "seed", "span", "prior", "cost_slope", "slate", "rerank_every",
                "slot_count", "policy", "freeze_beliefs", "clamp_ratings")
_PRIOR_KEYS = ("mean", "prior_var", "noise_var")


def _load_sim_config(path: str, seed_override: int | None) -> SimConfig:
    """The document's ``SimConfig``: its shape is checked here, each value by the library."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"malformed simulation config: {exc}") from exc
    except RecursionError:
        raise ValueError("malformed simulation config: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("simulation config must be a JSON object")
    # A misspelt key is refused, never ignored.
    if unknown := [key for key in doc if key not in _CONFIG_KEYS]:
        raise ValueError(f"simulation config: unknown key {unknown[0]!r}")
    # A null value counts as absent: the library's default stands in for it.
    values = {key: value for key, value in doc.items() if value is not None}
    for key in ("horizon", "seed", "span", "prior"):
        if key not in values:
            raise ValueError(f"simulation config missing required key {key!r}")
    prior = values["prior"]
    if not isinstance(prior, dict):
        raise ValueError("simulation config: 'prior' must be an object with mean, prior_var, "
                         f"noise_var, got {prior!r}")
    if unknown := [key for key in prior if key not in _PRIOR_KEYS]:
        raise ValueError(f"simulation config: 'prior' unknown key {unknown[0]!r}")
    for key in _PRIOR_KEYS:
        if prior.get(key) is None:
            raise ValueError(f"simulation config: 'prior' missing required key {key!r}")
    values["prior"] = BeliefPrior(*(prior[key] for key in _PRIOR_KEYS))
    for key in ("slate", "clamp_ratings"):
        if isinstance(values.get(key), list):
            values[key] = tuple(values[key])
    require_int("seed", values["seed"])  # refused even where --seed replaces it
    if seed_override is not None:
        values["seed"] = seed_override
    span, slope = values.pop("span"), values.pop("cost_slope", None)
    return _cli.SimConfig(
        **values,
        dist=parse_span_spec(span),
        cost=CostModel() if slope is None else CostModel(slope),
    )


def _overwrite(path: Path, data: bytes) -> None:
    """As ``path.write_bytes(data)``, but O_TRUNC (slow on some disks) is skipped:
    only a longer old file is cut."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as out:
        size = os.fstat(out.fileno()).st_size
        out.write(data)
        if size > len(data):
            out.truncate()


def _cmd_simulate(args) -> int:
    catalog, digest = _read_catalog(args.catalog)
    cfg = _load_sim_config(args.config, args.seed)
    trace = _cli.simulate(catalog, cfg)
    config = {
        "config_path": args.config,
        "horizon": cfg.horizon,
        "seed": cfg.seed,
        "freeze_beliefs": cfg.freeze_beliefs,
    }
    manifest = _manifest("simulate", config, digest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = _cli.trace_table(trace).encode("utf-8")
    summary = _cli.summarize(trace)
    report = _summary_json(manifest, summary)
    document = (report + "\n").encode("utf-8")
    # Both files are encoded before either is written: a failed encode leaves both as they were.
    _overwrite(out_dir / "trace.tsv", table)
    _overwrite(out_dir / "summary.json", document)
    lines = [
        f"customers {cfg.horizon}",
        f"purchases {summary.purchase_count}",
        f"purchase_rate {_fmt(summary.purchase_rate)}",
        f"gross_revenue {_fmt(summary.gross_revenue)}",
        f"platform_revenue {_fmt(summary.platform_revenue)}",
        f"wrote {out_dir / 'trace.tsv'} and {out_dir / 'summary.json'}",
    ]
    _emit(args, manifest, report, lines)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="assortplan",
        description="Competitive assortment planning: rank, evaluate, audit, simulate.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--catalog", required=True, help="path to the catalog document")
    common.add_argument(
        "--format", choices=("text", "structured"), default="text", help="report format"
    )
    # The analytic subcommands' shared options: demand, span and share.
    analytic = argparse.ArgumentParser(add_help=False)
    analytic.add_argument(
        "--prior",
        help="belief prior as 'MEAN,PRIOR_VAR,NOISE_VAR' for products without pinned demand",
    )
    analytic.add_argument(
        "--cost-slope", type=float, help="linear position-cost slope (default 0.1)"
    )
    analytic.add_argument("--span", required=True, help="span spec: y=3 or pmf=1:0.5,3:0.5")
    analytic.add_argument("--omega", help="uniform revenue-share override, e.g. uniform:1.0")

    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", parents=[common], help="two-stage ranking")
    p_rank.add_argument("--slots", type=int, required=True, help="number of display slots")
    p_rank.add_argument("--policy", choices=POLICIES, default=POLICY_STAGE1_ORDER)
    p_rank.add_argument("--trace", action="store_true", help="include the iteration trace")
    p_rank.set_defaults(func=_cmd_rank)

    p_rev = sub.add_parser(
        "expected-revenue", parents=[common, analytic], help="evaluate a slate"
    )
    p_rev.add_argument("--slate", required=True, help="comma-separated product ids in order")
    p_rev.set_defaults(func=_cmd_expected_revenue)

    p_opt = sub.add_parser(
        "optimize", parents=[common, analytic], help="exhaustive slate optimization"
    )
    p_opt.add_argument("--slots", type=int, required=True)
    p_opt.add_argument("--compare", help="slate to report the optimality gap against")
    p_opt.set_defaults(func=_cmd_optimize)

    p_audit = sub.add_parser(
        "audit", parents=[common, analytic], help="audit a displayed ranking"
    )
    p_audit.add_argument("--displayed", required=True, help="displayed slate, comma-separated")
    p_audit.add_argument("--policy", choices=POLICIES, default=POLICY_STAGE1_ORDER)
    p_audit.set_defaults(func=_cmd_audit)

    p_sim = sub.add_parser("simulate", parents=[common], help="sequential market simulation")
    p_sim.add_argument("--config", required=True, help="path to the simulation config JSON")
    p_sim.add_argument("--out", required=True, help="output directory for trace and summary")
    p_sim.add_argument("--seed", type=int, help="override the config seed")
    p_sim.set_defaults(func=_cmd_simulate)
    return parser


# What a plain command line may give: a store of one value, or a flag.
_PLAIN = ((argparse._StoreAction, None), (argparse._StoreTrueAction, 0))


@functools.cache
def _option_table() -> dict:
    """Per subcommand, read off ``build_parser()``'s own actions: each exact option
    string's action, the defaults ``parse_args`` fills in and the required dests."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    table = {}
    for name, parser in sub.choices.items():
        used = [a for a in parser._actions if a.default is not argparse.SUPPRESS]
        options = {s: a for a in used if (type(a), a.nargs) in _PLAIN for s in a.option_strings}
        defaults = {sub.dest: name, **parser._defaults, **{a.dest: a.default for a in used}}
        table[name] = options, defaults, {a.dest for a in parser._actions if a.required}
    return table


def _read_argv(argv: Sequence[str]) -> argparse.Namespace | None:
    """``parse_args(argv)``'s ``Namespace`` for a plain command line, off the option
    table: every option spelt exactly and given once, a flag alone or one value
    not starting with ``-``, each value of its type and choices, every required
    option present.  Otherwise None: argparse reads it, with its own messages."""
    if not argv or (entry := _option_table().get(argv[0])) is None:
        return None
    options, defaults, required = entry
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        action = options.get(token)
        if action is None or action.dest in given:
            return None
        if action.nargs == 0:
            given[action.dest] = action.const
        elif (text := next(tokens, "-")).startswith("-"):
            return None
        else:
            try:
                value = given[action.dest] = (action.type or str)(text)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
    return argparse.Namespace(**{**defaults, **given}) if required <= given.keys() else None


def _print_new(printed: set[str], line: str) -> None:
    """Print ``line`` on stderr unless it is in ``printed``, the request's printed lines."""
    if line not in printed:
        printed.add(line)
        print(line, file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv) or build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            printed = set()  # each distinct warning prints once per request, naming no file
            warnings.showwarning = lambda message, *_: _print_new(printed, f"warning: {message}")
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
        # A KeyError's str() quotes its message; a UnicodeError's first argument is its codec.
        message = exc.args[0] if exc.args and not isinstance(exc, UnicodeError) else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
