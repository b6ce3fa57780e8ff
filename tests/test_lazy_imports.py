"""Cold start: the package and the CLI load the ranking, audit and simulation
modules on first use, and a value set on a lazy name is what runs."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import assortplan
from assortplan import cli

SRC = Path(__file__).resolve().parent.parent / "src"
BASE = {"assortplan", "assortplan.cli", "assortplan.catalog", "assortplan.demand", "assortplan.revenue"}
# Each lazy name, package-level and in cli, and the submodule it comes from.
LAZY_PACKAGE_NAMES = {
    "two_stage_select": "assortment",
    "audit_ranking": "collusion",
    "SimConfig": "simulator",
    "simulate": "simulator",
}
LAZY_CLI_NAMES = {
    "two_stage_select": "assortment",
    "audit_ranking": "collusion",
    "findings_report": "collusion",
    "SimConfig": "simulator",
    "simulate": "simulator",
    "summarize": "simulator",
    "trace_table": "simulator",
}


def loaded_after(script: str) -> set[str]:
    """The ``assortplan`` modules loaded once ``script`` has run in a fresh interpreter."""
    report = "import json, sys; print(json.dumps([m for m in sys.modules if m.partition('.')[0] == 'assortplan']))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", f"{script}\n{report}"], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stdout.splitlines()[-1]))


def requests(demo_path, tmp_path) -> dict[str, list[str]]:
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "horizon": 20, "seed": 1, "span": "y=3", "rerank_every": 5, "slot_count": 3,
        "prior": {"mean": 0.0, "prior_var": 1.0, "noise_var": 1.0},
    }), encoding="utf-8")
    catalog = ["--catalog", str(demo_path)]
    return {
        "optimize": ["optimize", *catalog, "--slots", "3", "--span", "y=3", "--compare", "A,B,F"],
        "expected-revenue": ["expected-revenue", *catalog, "--slate", "A,B,F", "--span", "y=3"],
        "rank": ["rank", *catalog, "--slots", "3", "--trace"],
        "audit": ["audit", *catalog, "--displayed", "A,D,F", "--span", "y=3"],
        "simulate": ["simulate", *catalog, "--config", str(config), "--out", str(tmp_path / "out")],
    }


# The engine modules each subcommand loads beyond BASE.
EXTRA_MODULES = {
    "optimize": (),
    "expected-revenue": (),
    "rank": ("assortment",),
    "audit": ("assortment", "collusion"),
    "simulate": ("assortment", "simulator", "philox"),
}


@pytest.mark.parametrize("command", EXTRA_MODULES)
def test_request_loads_only_the_modules_it_runs(demo_path, tmp_path, command):
    argv = requests(demo_path, tmp_path)[command]
    script = (
        "import contextlib, io\nfrom assortplan import cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main({argv!r}) in (0, 1)"
    )
    assert loaded_after(script) == BASE | {f"assortplan.{name}" for name in EXTRA_MODULES[command]}


def test_package_loads_the_other_modules_on_first_use():
    assert loaded_after("import assortplan") == BASE - {"assortplan.cli"}
    script = "import assortplan\nfor name in assortplan.__all__:\n    getattr(assortplan, name)"
    assert loaded_after(script) == BASE - {"assortplan.cli"} | {
        f"assortplan.{name}" for name in ("assortment", "collusion", "simulator", "philox")
    }


@pytest.mark.parametrize("owner, names", [(assortplan, LAZY_PACKAGE_NAMES), (cli, LAZY_CLI_NAMES)], ids=["package", "cli"])
def test_each_lazy_name_resolves_to_its_module_s_object(owner, names):
    for name, module in names.items():
        assert getattr(owner, name) is getattr(importlib.import_module(f"assortplan.{module}"), name)


def test_unknown_names_are_attribute_errors():
    for module in (assortplan, cli):
        with pytest.raises(AttributeError, match=f"module '{module.__name__}' has no attribute 'nothing'"):
            module.nothing  # noqa: B018
        assert not hasattr(module, "RankingPool")


def test_a_value_set_before_the_first_request_is_what_runs(demo_path, tmp_path, monkeypatch, capsys):
    # A fresh import, so no lazy name has been looked up before it is set.
    for name in [m for m in sys.modules if m.partition(".")[0] == "assortplan"]:
        monkeypatch.delitem(sys.modules, name)
    fresh = importlib.import_module("assortplan.cli")
    calls = []

    def spy(name, original):
        return lambda *args, **kwargs: calls.append(name) or original(*args, **kwargs)

    for name in LAZY_CLI_NAMES:
        monkeypatch.setattr(fresh, name, spy(name, getattr(fresh, name)))
    argv = requests(demo_path, tmp_path)
    for _ in range(2):  # the first request's own lookups leave each spy in place
        calls.clear()
        assert [fresh.main(argv[command]) for command in ("rank", "audit", "simulate")] == [0, 1, 0]
        assert sorted(set(calls)) == sorted(LAZY_CLI_NAMES)
    capsys.readouterr()
