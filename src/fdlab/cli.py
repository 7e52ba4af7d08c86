"""Command-line harness.

Subcommands:
  run     solve one instance under an explicit configuration
  table2  dump the builders' variable/constraint counts (and the extended
          variable counts) for every catalogued instance
  table3  dump the bundled reference backtrack counts (informational only)
  sweep   run one of the preset experiment matrices

Exit codes: 0 ok, 1 infeasible, 2 configuration error (an unwritable
``--out`` included).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys

from .bench import RunConfig, emit, run_matrix
from .data import table_rows
from .model import BOOL_INT, BOOL_NATIVE, SUM_DECOMPOSED, SUM_NATIVE, ModelError
from .problems import Instance, counts, parse_instance
from .propagate import Engine
from .restore import RestoreMode

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_CONFIG = 2


def _restore_mode(args):
    """The ``--restore`` mode.  ``--rec-dist`` (default 8) sets the
    distance of ``copy-recompute`` only: given with ``trail`` or ``copy``
    it is a configuration error, not a flag that is silently dropped."""
    if args.restore == "copy-recompute":
        return RestoreMode.copy_recompute(8 if args.rec_dist is None else args.rec_dist)
    if args.rec_dist is not None:
        raise ValueError(f"{args.restore} takes no recomputation distance")
    return RestoreMode.copy() if args.restore == "copy" else RestoreMode.trail()


def _add_run_options(parser):
    parser.add_argument(
        "--restore", choices=["trail", "copy", "copy-recompute"], default="trail"
    )
    parser.add_argument("--rec-dist", type=int, metavar="N")
    parser.add_argument(
        "--queue", choices=Engine.POLICIES, default="fifo"
    )
    parser.add_argument(
        "--sum-eq", choices=[SUM_NATIVE, SUM_DECOMPOSED], default=SUM_NATIVE
    )
    parser.add_argument(
        "--bool-vars", choices=[BOOL_NATIVE, BOOL_INT], default=BOOL_NATIVE
    )
    parser.add_argument("--bnb", choices=["post", "tighten"], default="tighten")
    parser.add_argument("--runs", type=int, default=5, metavar="K")


def _add_output_options(parser):
    parser.add_argument("--out", metavar="FILE")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")


def _output(args, newline=None):
    if args.out:
        return open(args.out, "w", newline=newline)
    return contextlib.nullcontext(sys.stdout)


def _emit(records, args):
    with _output(args, newline="") as out:
        out.write(emit(records, args.format))


def cmd_run(args):
    config = RunConfig(
        parse_instance(args.model),
        bool_mode=args.bool_vars,
        sum_mode=args.sum_eq,
        restore=_restore_mode(args),
        queue=args.queue,
        bnb=args.bnb,
        runs=args.runs,
    )
    records = run_matrix([config])
    record = records[0]
    if record.error is not None:
        print(f"error: {record.error}", file=sys.stderr)
        return EXIT_CONFIG
    _emit(records, args)
    return EXIT_OK if record.solutions > 0 else EXIT_INFEASIBLE


def cmd_table2(args):
    with _output(args, newline="") as out:
        writer = csv.writer(out)
        writer.writerow(
            ["model", "instance", "variables", "constraints", "constraints_decomposed"]
        )
        for row in table_rows("table2"):
            instance = parse_instance(f"{row['model']}:{row['instance']}")
            got = counts(instance)
            writer.writerow(
                [
                    row["model"],
                    row["instance"],
                    got.variables,
                    got.constraints_native,
                    got.constraints_decomposed,
                ]
            )
        writer.writerow(["model", "instance", "variables", "variables_extended"])
        for row in table_rows("table4"):
            normal = parse_instance(f"{row['model']}:{row['instance']}")
            extended = Instance(normal.problem, normal.params, extended=True)
            writer.writerow(
                [
                    row["model"],
                    row["instance"],
                    counts(normal).variables,
                    counts(extended).variables,
                ]
            )
    return EXIT_OK


def cmd_table3(args):
    table = table_rows("table3")
    with _output(args) as out:
        if args.format == "json":
            json.dump(
                {"note": "reference data from another solver; not asserted", "rows": table},
                out,
                indent=2,
            )
            out.write("\n")
        else:
            print("# reference backtrack counts from another solver; not asserted", file=out)
            writer = csv.writer(out)
            writer.writerow(["model", "instance", "backtracks"])
            for row in table:
                writer.writerow([row["model"], row["instance"], row["backtracks"]])
    return EXIT_OK


_SMALL = ["queens:8", "golomb:7", "magic:4", "golfers:2,4,4", "bibd:7,3,2"]
_TRAIL_AND_COPY = [{"restore": RestoreMode.trail()}, {"restore": RestoreMode.copy()}]

#: The preset sweeps: suite -> (instance specs, ``RunConfig`` overrides).
#: Each instance runs under each override in turn.  The instances are small
#: so that a full matrix stays fast.
_SUITES = {
    "boolint": (
        ["golfers:2,3,3", "golfers:2,4,4", "bibd:7,3,2", "bibd:7,3,10"],
        [{"bool_mode": BOOL_NATIVE}, {"bool_mode": BOOL_INT}],
    ),
    "copy": (
        _SMALL,
        [{"restore": RestoreMode.copy_recompute(d)} for d in (1, 2, 8, 16, 32)],
    ),
    "trail": (_SMALL, _TRAIL_AND_COPY),
    "manyvars": (
        [
            "queens:8", "queens:8+ext", "queens:10", "queens:10+ext",
            "golfers:2,3,3", "golfers:2,3,3+ext", "golfers:2,4,4", "golfers:2,4,4+ext",
        ],
        _TRAIL_AND_COPY,
    ),
}


def _sweep_configs(suite, runs):
    specs, overrides = _SUITES[suite]
    return [
        RunConfig(parse_instance(spec), runs=runs, **override)
        for spec in specs
        for override in overrides
    ]


def cmd_sweep(args):
    records = run_matrix(_sweep_configs(args.suite, args.runs))
    _emit(records, args)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fdlab", description="finite-domain solver benchmark harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one instance")
    p_run.add_argument("--model", required=True, metavar="NAME:PARAMS")
    _add_run_options(p_run)
    _add_output_options(p_run)
    p_run.set_defaults(func=cmd_run)

    p_t2 = sub.add_parser("table2", help="dump model-size counts")
    p_t2.add_argument("--out", metavar="FILE")
    p_t2.set_defaults(func=cmd_table2)

    p_t3 = sub.add_parser("table3", help="dump reference backtrack counts")
    p_t3.add_argument("--out", metavar="FILE")
    p_t3.add_argument("--format", choices=["csv", "json"], default="csv")
    p_t3.set_defaults(func=cmd_table3)

    p_sweep = sub.add_parser("sweep", help="run a preset experiment matrix")
    p_sweep.add_argument(
        "--suite",
        required=True,
        choices=list(_SUITES),
    )
    p_sweep.add_argument("--runs", type=int, default=5, metavar="K")
    _add_output_options(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
