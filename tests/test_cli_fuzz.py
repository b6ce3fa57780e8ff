"""Drawn command lines: every invocation exits 0, 1, 2 or 3 and prints no traceback.

Exit 3 is reserved for the enumeration guard and the revenue self-check,
and an exit 2 prints one ``error:`` line.  Drawn simulate-config documents
give every key a value of any JSON kind, ints beyond float range included.

Arguments are drawn for all five subcommands, valid and invalid flag values
alike, over the demo catalog, a logit catalog and malformed documents.
argparse's own usage errors leave ``main`` as ``SystemExit(2)``; any other
exception escaping ``main`` fails the test.  The same command lines, some
respelt in ways only argparse reads, also check that every one the option
table reads gives argparse's ``Namespace``.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import replace

import pytest
from hypothesis import event, example, given, settings, strategies as st

from assortplan import cli
from assortplan.catalog import Catalog, demo_catalog, serialize_catalog
from assortplan.cli import main

MALFORMED = {
    "not-json.json": "{products: [",
    "array.json": "[]",
    "products-object.json": '{"products": {}}',
    "entry-not-object.json": '{"products": [1]}',
    "nan-price.json": '{"products": [{"id": "A", "price": NaN, "reviews": 1, "avg_rating": 4.0}]}',
    "duplicate-ids.json": json.dumps(
        {"products": [{"id": "A", "price": 1, "reviews": 1, "avg_rating": 4.0}] * 2}
    ),
    "empty.json": '{"products": []}',
    "huge-reviews.json": json.dumps(
        {"products": [{"id": "A", "price": 1, "reviews": 2**63, "avg_rating": 4.0}]}
    ),
    "deep.json": "[" * 100_000 + "]" * 100_000,
    "unknown-top-key.json": json.dumps(
        {"products": [{"id": "A", "price": 1, "reviews": 1, "avg_rating": 4.0}],
         "display_scal": [1, 5]}
    ),
    "bad-utf8.json": b"\xff\xfe{",
}

PRIOR = {"mean": 3.0, "prior_var": 1.0, "noise_var": 1.0}
SIM_CONFIGS = {
    "frozen.json": {"horizon": 40, "seed": 3, "span": "y=3", "prior": PRIOR,
                    "slate": ["A", "B", "F"], "freeze_beliefs": True},
    "rerank.json": {"horizon": 40, "seed": 3, "span": "pmf=1:0.5,3:0.5", "prior": PRIOR,
                    "rerank_every": 4, "slot_count": 3, "policy": "price-desc"},
    "live-slate.json": {"horizon": 40, "seed": 2**64 - 1, "span": "y=2", "prior": PRIOR,
                        "slate": ["C", "E"], "clamp_ratings": [1, 5]},
    "unknown-id.json": {"horizon": 5, "seed": 1, "span": "y=2", "prior": PRIOR, "slate": ["Z"]},
    "both-displays.json": {"horizon": 5, "seed": 1, "span": "y=2", "prior": PRIOR,
                           "slate": ["A"], "rerank_every": 2, "slot_count": 1},
    "typed-wrong.json": {"horizon": "5", "seed": 1.5, "span": 3, "prior": [], "slate": "AB"},
    "bad-prior.json": {"horizon": 5, "seed": 1, "span": "y=2",
                       "prior": {"mean": 0, "prior_var": 0, "noise_var": 1}, "slate": ["A"]},
    "bad-clamp.json": {"horizon": 5, "seed": 1, "span": "y=2", "prior": PRIOR,
                       "slate": ["A"], "clamp_ratings": [5, 1]},
    "missing-keys.json": {"seed": 1},
    "misspelt-key.json": {"horizon": 5, "seed": 1, "span": "y=2", "prior": PRIOR,
                          "slate": ["A"], "freeze_belief": True},
    "prior-extra-key.json": {"horizon": 5, "seed": 1, "span": "y=2", "slate": ["A"],
                             "prior": {**PRIOR, "noise": 1.0}},
    "array.json": [],
}

# Flag values: the valid ones, then the invalid ones.
VALUES = {
    "slate": (
        ["A,B,F", "A,D,F", "F,A", "A", "C,E,H,J"], ["A,A", "Z", "", ",", "A,B,C,D,E,F,G,H,I,J"]
    ),
    "span": (
        ["y=3", "y=1", "pmf=1:0.5,3:0.5", "pmf=2:0.3,4:0.7", "y=99999999999999999999"],
        [
            "y=0", "y=-2", "y=x", "pmf=", "pmf=1:2", "pmf=1:0.5,1:0.5", "pmf=3:nan", "pmf=3:inf",
            "pmf=1:-0.5,2:1.5", "z=3",
        ],
    ),
    # optimize refuses more than 8 slots with exit 3, before enumerating.
    "slots": (["1", "2", "3", "9", str(10**30)], ["0", "-1", "x", "1.5"]),
    "prior": (["3,1,1", "1e308,1,1"], ["0,0,1", "a,b,c", "1,2", "nan,1,1", "0,inf,1"]),
    "slope": (["0.1", "0", "1e308"], ["-1", "nan", "inf", "x"]),
    "omega": (["uniform:1.0", "uniform:0.5"], ["uniform:0", "uniform:2", "uniform:x", "x"]),
    "policy": (["stage1-order", "price-desc"], ["bogus"]),
    "format": (["text", "structured"], ["xml"]),
    "seed": (["0", str(2**64 - 1)], ["-1", str(2**64), "x"]),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("fuzz")

    def write(name: str, content) -> str:
        path = root / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        return str(path)

    logit = Catalog(
        replace(p, price=p.avg_rating - 1, true_quality=p.avg_rating, rating_noise=0.5,
                demand_override=None)
        for p in demo_catalog().products
    )
    catalogs = [
        write("demo.json", serialize_catalog(demo_catalog())),
        write("logit.json", serialize_catalog(logit)),
        *(write(name, text) for name, text in MALFORMED.items()),
        str(root / "missing.json"),
        str(root),
    ]
    configs = [write(f"sim-{name}", json.dumps(doc)) for name, doc in SIM_CONFIGS.items()]
    configs += [
        write("sim-malformed.json", "{"),
        write("sim-deep.json", MALFORMED["deep.json"]),
        str(root / "missing-config.json"),
    ]
    return {
        "catalog": (catalogs[:2], catalogs[2:]),
        "config": (configs[:3], configs[3:]),
        "out": str(root / "out"),
    }


@st.composite
def command_lines(draw, files: dict) -> list[str]:
    """A command line; in about half of them every value is a valid one."""
    valid_only = draw(st.booleans())

    def value(name: str) -> str:
        valid, invalid = VALUES.get(name) or files[name]
        if valid_only:
            return draw(st.sampled_from(valid))
        return draw(st.sampled_from(valid + invalid) | st.text(max_size=8))

    def optional(flag: str, name: str) -> list[str]:
        return [flag, value(name)] if draw(st.booleans()) else []

    command = draw(st.sampled_from(["rank", "expected-revenue", "optimize", "audit", "simulate"]))
    argv = [command, "--catalog", value("catalog"), *optional("--format", "format")]
    if command in ("expected-revenue", "optimize", "audit"):
        argv += optional("--prior", "prior") + optional("--cost-slope", "slope")
        argv += optional("--omega", "omega")
    if command == "rank":
        argv += ["--slots", value("slots")]
        argv += optional("--policy", "policy") + draw(st.sampled_from([[], ["--trace"]]))
    elif command == "expected-revenue":
        argv += ["--slate", value("slate"), "--span", value("span")]
    elif command == "optimize":
        argv += ["--slots", value("slots"), "--span", value("span")]
        argv += optional("--compare", "slate")
    elif command == "audit":
        argv += ["--displayed", value("slate"), "--span", value("span")]
        argv += optional("--policy", "policy")
    else:
        argv += ["--config", value("config"), "--out", files["out"], *optional("--seed", "seed")]
    if not valid_only and draw(st.integers(0, 4)) == 0:
        # Drop the last flag's value, or add an unknown flag.
        argv = argv[:-1] if draw(st.booleans()) else [*argv, "--bogus"]
    return argv


RESPELLINGS = ("as drawn", "abbreviated", "joined", "repeated", "--", "-h", "negative")


@st.composite
def respelt_command_lines(draw, files: dict) -> list[str]:
    """A drawn command line, or one respelt in a way only argparse reads: an option
    abbreviated, joined to its value by ``=`` or repeated, a ``--`` or ``-h``
    inserted, or a value made negative."""
    argv = draw(command_lines(files))
    flags = [i for i, token in enumerate(argv) if token.startswith("--") and len(token) > 3]
    form = draw(st.sampled_from(RESPELLINGS))
    i = draw(st.sampled_from(flags))
    flag, valued = argv[i], i + 1 < len(argv) and not argv[i + 1].startswith("--")
    if form == "abbreviated":
        argv[i] = flag[: draw(st.integers(3, len(flag) - 1))]
    elif form == "joined" and valued:
        argv[i : i + 2] = [f"{flag}={argv[i + 1]}"]
    elif form == "repeated":
        argv += argv[i : i + 1 + valued]
    elif form in ("--", "-h"):
        argv.insert(draw(st.integers(1, len(argv))), form)
    elif form == "negative" and valued:
        argv[i + 1] = draw(st.sampled_from(["-1", "-0.5", "-1e308", "-x"]))
    else:
        form = "as drawn"
    event(form)
    return argv


def _same(a, b) -> bool:
    """Equal values of one type, a NaN equal to a NaN."""
    return type(a) is type(b) and (a == b or a != a and b != b)


@settings(max_examples=300)
@given(data=st.data())
def test_the_table_reads_what_argparse_reads(files, data):
    # Parses only: no command runs.
    argv = data.draw(respelt_command_lines(files))
    table = cli._read_argv(argv)
    event("read off the table" if table is not None else "left to argparse")
    if table is None:
        return
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            parsed = cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"the table read {argv}, which argparse refuses: {err.getvalue()}")
    assert vars(table).keys() == vars(parsed).keys(), argv
    assert all(_same(vars(table)[key], value) for key, value in vars(parsed).items()), argv


# The only two faults that exit 3: anything else is input (exit 2) or a crash.
GUARD_ERRORS = (
    "error: enumeration guard exceeded",
    "internal consistency error: span-expectation forms disagree",
)


def _assert_clean_exit(argv, code, stderr) -> None:
    assert code in (0, 1, 2) or (code == 3 and stderr.startswith(GUARD_ERRORS)), (argv, code, stderr)
    assert "Traceback" not in stderr, (argv, stderr)


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=400)
@given(data=st.data())
def test_every_command_line_exits_cleanly(files, data):
    argv = data.draw(command_lines(files))
    code, stderr = _run(argv)
    event(f"{argv[0]} exit {code}")
    _assert_clean_exit(argv, code, stderr)


def test_each_document_under_a_working_command_line(files):
    # The drawn command lines pair a malformed document mostly with other
    # faults that argparse reports first, so each document is also read
    # here by a command line that is otherwise valid.
    (demo, logit), malformed = files["catalog"]
    for catalog in (demo, logit, *malformed):
        valid = catalog in (demo, logit)
        rank = ["rank", "--catalog", catalog, "--slots", "3", "--trace"]
        audit = ["audit", "--catalog", catalog, "--displayed", "A,D,F", "--span", "y=3"]
        for argv, codes in ((rank, {0}), ([*audit, "--prior", "3,1,1"], {0, 1})):
            code, stderr = _run(argv)
            _assert_clean_exit(argv, code, stderr)
            assert code in (codes if valid else {2}), (argv, code, stderr)
            assert stderr == "" if valid else stderr.startswith("error: "), (argv, stderr)
    # The demo catalog's substituted slate is an audit finding.
    assert _run(["audit", "--catalog", demo, "--displayed", "A,D,F", "--span", "y=3"])[0] == 1
    working, broken = files["config"]
    for config in working + broken:
        argv = ["simulate", "--catalog", logit, "--config", config, "--out", files["out"]]
        code, stderr = _run(argv)
        _assert_clean_exit(argv, code, stderr)
        if config in working:
            assert (code, stderr) == (0, ""), argv
        else:
            assert code == 2 and stderr.startswith("error: "), (argv, code, stderr)


HUGE = 10**400
# Values of every JSON kind.  The horizon is kept small: a positive horizon
# is valid however large, and the run would simulate that many customers.
ANY_VALUE = st.recursive(
    st.sampled_from([HUGE, -HUGE, 0, -1, 2**64, True, False, None, "", "y=2", "A", 1.5, -0.5])
    | st.integers(-3, 40) | st.floats(-10, 10) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["mean", "x"]), inner, max_size=2),
    max_leaves=4,
)
PRIOR_VALUE = st.sampled_from([0.0, 1.0, 3, HUGE, -HUGE, True, None, "1", [1.0], 1e-320, 1e308])


@st.composite
def sim_config_documents(draw) -> dict:
    """A working fixed-slate or re-ranking config with a few values redrawn, of any kind."""
    doc = dict(draw(st.sampled_from([SIM_CONFIGS["frozen.json"], SIM_CONFIGS["rerank.json"]])))
    doc["prior"] = dict(PRIOR)
    for key in draw(st.lists(st.sampled_from(cli._CONFIG_KEYS + cli._PRIOR_KEYS), max_size=3, unique=True)):
        if key in cli._PRIOR_KEYS:
            if isinstance(doc["prior"], dict):  # unless the prior itself was redrawn
                doc["prior"][key] = draw(PRIOR_VALUE)
        elif key == "horizon":
            # A valid horizon stays short; one of 2**64 or more is refused.
            doc[key] = draw(ANY_VALUE.filter(lambda v: not isinstance(v, int) or v <= 40 or v >= 2**64))
        else:
            doc[key] = draw(ANY_VALUE)
    return doc


@settings(max_examples=150)
@given(sim_config_documents())
@example({**SIM_CONFIGS["frozen.json"], "cost_slope": HUGE})
@example({**SIM_CONFIGS["frozen.json"], "prior": {**PRIOR, "mean": HUGE}})
@example({**SIM_CONFIGS["rerank.json"], "prior": {**PRIOR, "noise_var": -HUGE}})
@example({**SIM_CONFIGS["live-slate.json"], "clamp_ratings": [1, HUGE]})
@example({**SIM_CONFIGS["frozen.json"], "horizon": 2**64})
def test_drawn_simulate_configs_exit_cleanly(files, tmp_path_factory, doc):
    # Whatever the library refuses exits 2 with one error line; nothing exits 3.
    path = tmp_path_factory.mktemp("drawn") / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    demo = files["catalog"][0][0]
    code, stderr = _run(["simulate", "--catalog", demo, "--config", str(path), "--out", files["out"]])
    event(f"exit {code}")
    _assert_clean_exit(doc, code, stderr)
    assert code in (0, 2), (doc, code, stderr)
    if code == 2:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, (doc, stderr)
    else:
        assert stderr == "", (doc, stderr)
