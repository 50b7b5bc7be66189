"""The command-line surface, pinned: every subcommand's options and the
``--help`` pages of ``run``, ``compare`` and ``jobs`` — and each
argument of each command declared once, by one row of
``repro.options.OPTIONS``.

``cli_surface/actions.json`` records each parser action of every
subcommand (option strings, dest, default, choices, metavar, nargs,
action class, required); a refactor of how the parser is built must
leave it byte-identical.  ``cli_surface/<command>.help`` holds the help
pages, formatted 80 columns wide.  Regenerate both with
``PYTHONPATH=src python tests/test_cli_surface.py`` — and say in
CHANGES.md which lines moved and why.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser
from repro.jobs.spec import CLUSTER_KEYS
from repro.options import OPTIONS

SRC = Path(repro.__file__).parent
GOLDEN = Path(__file__).with_name("cli_surface")
HELP_COMMANDS = ("run", "compare", "jobs")
WIDTH = "80"


def _parsers(parser, prefix=()):
    """``(command path, parser)`` for the root and every subcommand."""
    yield " ".join(prefix), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parsers(sub, prefix + (name,))


def _record(action: argparse.Action) -> dict:
    choices = action.choices
    if isinstance(choices, dict):
        choices = sorted(choices)
    return {"options": list(action.option_strings), "dest": action.dest,
            "default": action.default,
            "choices": None if choices is None else list(choices),
            "metavar": action.metavar, "nargs": action.nargs,
            "action": type(action).__name__, "required": action.required}


def surface() -> str:
    table = {name: [_record(action) for action in parser._actions]
             for name, parser in _parsers(build_parser())}
    return json.dumps(table, indent=1, sort_keys=True) + "\n"


def help_page(command: str) -> str:
    parsers = dict(_parsers(build_parser()))
    return parsers[command].format_help()


def test_every_action_is_unchanged():
    assert surface() == (GOLDEN / "actions.json").read_text()


@pytest.mark.parametrize("command", HELP_COMMANDS)
def test_help_page_is_unchanged(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", WIDTH)
    assert help_page(command) == (GOLDEN / f"{command}.help").read_text()


def test_every_argument_and_cluster_key_is_one_row():
    declared = [(command, option.flag) for option in OPTIONS
                for command in option.defaults]
    assert len(set(declared)) == len(declared)      # one row per argument
    parsed = [(command, (action.option_strings or [action.dest])[0])
              for command, parser in _parsers(build_parser())
              for action in parser._actions
              if not isinstance(action, (argparse._HelpAction,
                                         argparse._SubParsersAction))]
    assert sorted(parsed) == sorted(declared)       # and back
    keys = [option.key for option in OPTIONS if option.key]
    assert sorted(keys) == sorted(CLUSTER_KEYS)     # each key one row


def test_second_declarations_stay_deleted():
    """No hand-kept flag helper, key list, ``setting`` merge or cast."""
    trees = {path: ast.parse(path.read_text()) for path in SRC.rglob("*.py")}
    functions = {node.name: node for tree in trees.values()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    assert not {"_add_run_args", "_add_fusion_args", "_add_telemetry_args",
                "_add_analyze_args", "_positive_int", "_parse_static_window",
                "setting"} & set(functions)
    assert "setting(" not in (SRC / "cli.py").read_text()
    casts = [node.func.id for node in ast.walk(functions["cmd_jobs"])
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id in ("int", "float", "bool", "str")]
    assert not casts
    (keys,) = [node.value for node in trees[SRC / "jobs" / "spec.py"].body
               if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets]
               == ["CLUSTER_KEYS"]]
    assert not [node for node in ast.walk(keys)
                if isinstance(node, ast.Constant)]


if __name__ == "__main__":                              # pragma: no cover
    os.environ["COLUMNS"] = WIDTH
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "actions.json").write_text(surface())
    for name in HELP_COMMANDS:
        (GOLDEN / f"{name}.help").write_text(help_page(name))
