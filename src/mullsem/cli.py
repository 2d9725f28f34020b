"""Command-line driver.

Exit codes: 0 on success (negative answers such as a found counter-model
are data, not failures), 1 on semantic failure (variance errors,
unsupported constructors, exceeded budgets) or when stdout closes early,
2 on input errors with positioned diagnostics.  Machine output is JSON
with a fixed key order, and every numeric report carries its budget or
tolerance provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module

# each command is a module of mullsem.commands that imports the modules
# it runs, so a command pays start-up only for its own code
from .budgets import DEFAULT_BAG, DEFAULT_DEPTH, Budgets
from .errors import (FileFormatError, MullsemError, ParseError,
                     UnboundVariable)

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_INPUT = 2

# the keys of poles.NAMED_POLES, sorted; the parser lists them without
# importing poles
POLES = ("nat", "pcoh", "totality")


def build_parser():
    top = argparse.ArgumentParser(
        prog="mullsem",
        description="semantics workbench for linear logic types with fixpoints")
    top.add_argument("--format", choices=("human", "machine"), default="human",
                     help="report style (machine = stable JSON)")
    sub = top.add_subparsers(dest="command", required=True)

    var = sub.add_parser("variance", help="check the variance judgement")
    var.add_argument("formula")

    interp = sub.add_parser("interp", help="interpret a formula in a model")
    interp.add_argument("--model", required=True,
                        choices=("rel", "totality", "phase", "wrel"))
    interp.add_argument("--space", help="phase-space file (phase model)")
    interp.add_argument("--depth", type=int, default=DEFAULT_DEPTH,
                        help=f"fixpoint depth budget (default {DEFAULT_DEPTH})")
    interp.add_argument("--bag", type=int, default=DEFAULT_BAG,
                        help=f"multiset size budget (default {DEFAULT_BAG})")
    interp.add_argument("formula")

    search = sub.add_parser("phase-search",
                            help="search small phase spaces for a counter-model")
    search.add_argument("--max-size", type=int, default=3)
    search.add_argument("formula")

    fix = sub.add_parser("fix", help="least fixpoint of a monotone map")
    fix.add_argument("--expr", required=True, help="expression file")
    fix.add_argument("--tol", default="1e-9")
    fix.add_argument("--max-iter", type=int, default=10000)
    fix.add_argument("--mode", choices=("float", "exact"), default="float")

    polar = sub.add_parser("polar",
                           help="bipolar membership over the [0,1] pole")
    polar.add_argument("--generators", required=True, help="matrix file")
    polar.add_argument("--point", required=True, help="vector file")

    adm = sub.add_parser("admissible", help="admissibility verdict for a pole")
    adm.add_argument("--pole", required=True, choices=POLES)

    return top


def _budgets(args) -> Budgets:
    try:
        return Budgets(depth=args.depth, bag=args.bag)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc


def _emit(args, payload, human_lines):
    if args.format == "machine":
        print(json.dumps(payload))
    else:
        for line in human_lines:
            print(line)
    return EXIT_OK


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc


_INPUT_ERRORS = (ParseError, FileFormatError, UnboundVariable)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the subcommand's module of mullsem.commands: its name, - read as _
    command = import_module(
        f".commands.{args.command.replace('-', '_')}", __package__)
    try:
        code = command.run(args)
        sys.stdout.flush()
        return code
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MullsemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that a later
        # flush of what is still buffered does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed before the answer was written",
              file=sys.stderr)
        return EXIT_SEMANTIC


def entry():
    """The process entry of ``mullsem`` and ``python -m mullsem``: main's
    exit code, once stdout and stderr are flushed.  The package registers
    no atexit handler and writes nothing but these two streams, so ending
    with os._exit skips only module teardown and the final garbage
    collection.  argparse's SystemExit and an uncaught exception leave
    main before this and take the interpreter's normal exit."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
