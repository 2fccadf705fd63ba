"""The command line's parser surface, pinned as structure.

``tests/goldens/cli-surface.json`` records, for every subcommand, each
argument's option strings, dest, action class, type name, default,
choices, nargs, required flag, metavar and help.  It records structure
rather than ``format_help()`` text, whose layout differs between Python
versions.  A change to the surface is a change to what users can type;
re-bless deliberately with::

    PYTHONPATH=src python tests/test_cli_surface.py
"""

import json
import pathlib

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "cli-surface.json"


def _jsonable(value):
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def surface():
    """``{command: {"help": ..., "arguments": [...]}}`` of the parser."""
    import argparse

    from repro.cli import build_parser

    parser = build_parser()
    (commands,) = [action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    helps = {choice.dest: choice.help
             for choice in commands._choices_actions}
    record = {}
    for name, sub in commands.choices.items():
        record[name] = {"help": helps.get(name), "arguments": [
            {
                "option_strings": list(action.option_strings),
                "dest": action.dest,
                "action": type(action).__name__,
                "type": getattr(action.type, "__name__", action.type),
                "default": _jsonable(action.default),
                "choices": _jsonable(action.choices),
                "nargs": action.nargs,
                "required": action.required,
                "metavar": action.metavar,
                "help": action.help,
            }
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        ]}
    return record


def _document():
    return json.dumps(surface(), indent=2, sort_keys=True) + "\n"


def test_parser_surface_matches_golden():
    assert _document() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(_document(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
