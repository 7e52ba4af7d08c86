import csv
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from operator import attrgetter
from pathlib import Path
from statistics import median
from unittest import mock

import pytest

import fdlab.bench
from fdlab.bench import (
    CSV_COLUMNS,
    RunConfig,
    cov,
    emit,
    run_matrix,
)
from fdlab.cli import _sweep_configs, main
from fdlab.problems import Instance, parse_instance
from fdlab.restore import RestoreMode
from fdlab.search import nodes_per_second


def test_median_example():
    assert median([10, 11, 12, 13, 100]) == 12


def test_cov_direct_formula():
    values = [10.0, 12.0, 9.0, 11.0]
    mean = sum(values) / len(values)
    stddev = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
    assert cov(values) == pytest.approx(stddev / mean, rel=1e-12)
    assert cov([5.0]) == 0.0
    assert cov([0.0, 0.0]) == 0.0


def test_nps_definitional():
    assert nodes_per_second(500, 250.0) == pytest.approx(2000.0)


def test_run_config_validates_runs():
    with pytest.raises(ValueError):
        RunConfig(parse_instance("queens:4"), runs=0)


def test_run_config_refuses_a_restore_that_is_not_a_mode():
    """Refused when the config is built: a sweep's record reads the mode's
    variant before the run, so it cannot get as far as the search."""
    for restore in ("copy", None, 8):
        with pytest.raises(ValueError, match="RestoreMode"):
            RunConfig(parse_instance("queens:4"), restore=restore)


def test_matrix_restore_trajectory_invariance():
    inst = parse_instance("queens:8")
    records = run_matrix(
        [
            RunConfig(inst, restore=RestoreMode.trail(), runs=1),
            RunConfig(inst, restore=RestoreMode.copy(), runs=1),
            RunConfig(inst, restore=RestoreMode.copy_recompute(8), runs=1),
        ]
    )
    assert len(records) == 3
    assert len({(r.nodes, r.backtracks, r.solutions) for r in records}) == 1
    assert records[0].trail_entries > 0
    assert records[1].bytes_copied > 0
    assert records[2].recomputations > 0
    assert [r.replayed_decisions > 0 for r in records] == [False, False, True]


def test_matrix_bool_mode_invariance():
    inst = parse_instance("golfers:2,4,4")
    records = run_matrix(
        [
            RunConfig(inst, bool_mode="native", runs=1),
            RunConfig(inst, bool_mode="int", runs=1),
        ]
    )
    assert records[0].backtracks == records[1].backtracks
    assert records[0].nodes == records[1].nodes


def test_matrix_continues_past_build_failure():
    records = run_matrix(
        [
            RunConfig(Instance("bibd", (8, 3, 1)), runs=1),  # bad divisibility
            RunConfig(parse_instance("queens:4"), runs=1),
        ]
    )
    assert records[0].error is not None
    assert records[1].error is None and records[1].solutions == 1


def drifting_matrix(configs, counter="nodes"):
    """``run_matrix`` with a ``run_once`` whose trajectory differs on every
    run, as a non-deterministic solver's would: the ``SearchStats``
    attribute ``counter`` (a dotted path) grows by the run's number."""
    real_run_once = fdlab.bench.run_once
    runs = []
    *owner, name = counter.split(".")

    def drifting(config):
        stats, failure = real_run_once(config)
        runs.append(config)
        target = attrgetter(*owner)(stats) if owner else stats
        setattr(target, name, getattr(target, name) + len(runs))
        return stats, failure

    with mock.patch.object(fdlab.bench, "run_once", drifting):
        return run_matrix(configs)


def test_matrix_records_nondeterminism_and_continues():
    records = drifting_matrix(
        [
            RunConfig(parse_instance("queens:4"), runs=2),
            RunConfig(parse_instance("queens:5"), runs=1),
        ]
    )
    assert "non-deterministic trajectory" in records[0].error
    assert records[1].error is None and records[1].solutions == 1


def test_repeat_check_covers_replayed_decisions():
    """Replayed decisions depend only on the tree and the distances, so a
    drift in them alone fails the repeat check."""
    config = RunConfig(
        parse_instance("queens:6"), restore=RestoreMode.copy_recompute(4), runs=2
    )
    (record,) = drifting_matrix([config], counter="restore.replayed_decisions")
    assert "non-deterministic trajectory" in record.error


def _python(*args):
    """Run a fresh interpreter that imports fdlab and the test modules from
    this checkout."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    path = [str(here.parent / "src"), str(here), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_guards_hold_under_python_O():
    script = textwrap.dedent(
        """
        from fdlab.bench import RunConfig
        from fdlab.problems import parse_instance
        from test_bench import drifting_matrix
        from test_search import replay_error

        (record,) = drifting_matrix([RunConfig(parse_instance("queens:4"), runs=2)])
        print(__debug__, type(replay_error()).__name__, record.error)
        """
    )
    result = _python("-O", "-c", script)
    assert result.returncode == 0, result.stderr
    debug, raised, error = result.stdout.strip().split(" ", 2)
    assert (debug, raised) == ("False", "RuntimeError")
    assert error.startswith("non-deterministic trajectory")


def test_matrix_reports_infeasible_without_error():
    (record,) = run_matrix([RunConfig(parse_instance("queens:3"), runs=1)])
    assert record.error is None
    assert record.solutions == 0


def test_repeated_runs_aggregate():
    (record,) = run_matrix([RunConfig(parse_instance("queens:6"), runs=5)])
    assert record.runs == 5
    assert record.solve_ms_median > 0
    assert record.cov >= 0
    assert record.nps == pytest.approx(
        record.nodes / (record.solve_ms_median / 1e3)
    )


def _sample_records():
    return run_matrix(
        [
            RunConfig(parse_instance("queens:6"), runs=1),
            RunConfig(parse_instance("queens:6"), restore=RestoreMode.copy(), runs=1),
        ]
    )


def test_emit_csv_columns_exact():
    records = _sample_records()
    text = emit(records, "csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == CSV_COLUMNS
    assert CSV_COLUMNS == [
        "model", "instance", "extended", "bool_mode", "sum_mode", "restore",
        "rec_dist", "queue", "bnb", "runs", "nodes", "backtracks",
        "solutions", "fingerprint", "setup_ms_median", "solve_ms_median", "cov",
        "nps", "bytes_copied", "trail_entries", "snapshots", "recomputations",
        "replayed_decisions",
    ]
    assert len(rows) == 1 + len(records)


def test_emit_rejects_empty_and_unknown():
    with pytest.raises(ValueError):
        emit([], "csv")
    with pytest.raises(ValueError):
        emit(_sample_records(), "xml")


def _expected_rows(records):
    return [{col: getattr(r, col) for col in CSV_COLUMNS} for r in records]


def test_json_round_trip():
    records = _sample_records()
    assert json.loads(emit(records, "json")) == _expected_rows(records)


def test_csv_round_trip():
    records = _sample_records()
    rows = list(csv.DictReader(io.StringIO(emit(records, "csv"), newline="")))
    assert rows == [
        {col: "" if v is None else str(v) for col, v in row.items()}
        for row in _expected_rows(records)
    ]


# -- CLI ----------------------------------------------------------------


def test_cli_run_ok(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(
        ["run", "--model", "queens:6", "--runs", "1", "--out", str(out)]
    )
    assert code == 0
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows[0]["model"] == "queens"
    assert int(rows[0]["solutions"]) == 1


def test_cli_run_full_flags(capsys):
    code = main(
        [
            "run", "--model", "golomb:5", "--restore", "copy-recompute",
            "--rec-dist", "4", "--queue", "priority",
            "--sum-eq", "decomposed", "--bnb", "post", "--runs", "1",
            "--format", "json",
        ]
    )
    assert code == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert row["restore"] == "copy-recompute"
    assert row["rec_dist"] == 4
    assert row["bnb"] == "post"


def test_cli_recomputation_flags_need_copy_recompute(capsys):
    """A recomputation distance on ``trail`` or ``copy`` is a configuration
    error, not a flag that is silently dropped, and the adaptive distance
    is no flag at all.  A row carries its mode's distance: none for
    ``trail``, 1 for ``copy``, 8 by default for ``copy-recompute``."""
    run = ["run", "--model", "queens:6", "--runs", "1"]
    assert main([*run, "--restore", "trail", "--rec-dist", "4"]) == 2
    assert "trail takes no recomputation distance" in capsys.readouterr().err
    assert main([*run, "--restore", "copy", "--rec-dist", "1"]) == 2
    assert "copy takes no recomputation distance" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main([*run, "--restore", "copy-recompute", "--adapt-dist", "2"])
    assert exc.value.code == 2
    for restore, rec_dist in (("trail", None), ("copy", 1), ("copy-recompute", 8)):
        assert main([*run, "--restore", restore, "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert (row["restore"], row["rec_dist"]) == (restore, rec_dist)
    assert "adapt_dist" not in row


def test_cli_infeasible_exit_code(capsys):
    assert main(["run", "--model", "queens:3", "--runs", "1"]) == 1


def test_cli_config_error_exit_code(capsys, tmp_path):
    assert main(["run", "--model", "sudoku:9"]) == 2
    assert main(["run", "--model", "queens:0"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--model", "queens:6", "--queue", "sideways"])
    assert exc.value.code == 2
    capsys.readouterr()
    out = str(tmp_path / "missing" / "out.csv")
    assert main(["run", "--model", "queens:6", "--runs", "1", "--out", out]) == 2
    assert main(["table3", "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)


def test_cli_table2_matches_bundled_counts(capsys):
    from fdlab.data import table_rows

    assert main(["table2"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    second_header = rows.index(
        ["model", "instance", "variables", "variables_extended"]
    )
    sizes = {(r[0], r[1]): r[2:] for r in rows[1:second_header]}
    extended = {(r[0], r[1]): r[2:] for r in rows[second_header + 1 :]}
    for row in table_rows("table2"):
        assert sizes[(row["model"], row["instance"])] == [
            str(row["variables"]),
            str(row["constraints"]),
            str(row["constraints_decomposed"]),
        ]
    for row in table_rows("table4"):
        assert extended[(row["model"], row["instance"])] == [
            str(row["variables"]),
            str(row["variables_extended"]),
        ]


_OUT_COMMANDS = {
    "table2": ["table2"],
    "table3": ["table3"],
    "run": ["run", "--model", "queens:6", "--runs", "1"],
}
_TIMINGS = {"setup_ms_median", "solve_ms_median", "cov", "nps"}


def _untimed(command, text):
    """The output with the timing columns of a ``run`` record dropped."""
    if command != "run":
        return text
    rows = csv.DictReader(io.StringIO(text, newline=""))
    return [{k: v for k, v in row.items() if k not in _TIMINGS} for row in rows]


@pytest.mark.parametrize("table", list(_OUT_COMMANDS))
def test_cli_table_out_closes_its_file(table, tmp_path, capsys):
    argv = _OUT_COMMANDS[table]
    out = tmp_path / f"{table}.csv"
    script = f"from fdlab.cli import main; raise SystemExit(main({[*argv, '--out', str(out)]!r}))"
    result = _python("-W", "error::ResourceWarning", "-c", script)
    assert result.returncode == 0, result.stderr
    assert "ResourceWarning" not in result.stderr
    assert main(argv) == 0
    written = out.read_bytes().decode()
    assert _untimed(table, written) == _untimed(table, capsys.readouterr().out)


def test_cli_table3_marked_informational(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "not asserted" in out
    assert "399498" in out  # golfers 2,10,4 reference row


_SMALL = ["queens:8", "golomb:7", "magic:4", "golfers:2,4,4", "bibd:7,3,2"]
_MANYVARS = ["queens:8", "queens:10", "golfers:2,3,3", "golfers:2,4,4"]


@pytest.mark.parametrize(
    "suite, expected",
    [
        (
            "boolint",
            [
                (spec, "trail", None, mode)
                for spec in ["golfers:2,3,3", "golfers:2,4,4", "bibd:7,3,2", "bibd:7,3,10"]
                for mode in ("native", "int")
            ],
        ),
        (
            "copy",
            [
                (spec, "copy" if d == 1 else "copy-recompute", d, "native")
                for spec in _SMALL
                for d in (1, 2, 8, 16, 32)
            ],
        ),
        (
            "trail",
            [
                (spec, variant, distance, "native")
                for spec in _SMALL
                for variant, distance in (("trail", None), ("copy", 1))
            ],
        ),
        (
            "manyvars",
            [
                (spec + ext, variant, distance, "native")
                for spec in _MANYVARS
                for ext in ("", "+ext")
                for variant, distance in (("trail", None), ("copy", 1))
            ],
        ),
    ],
)
def test_sweep_suite_configs(suite, expected):
    """Each preset suite's configurations, in order, as (instance, restore
    variant, distance, Boolean mode); every other setting is the default."""
    configs = _sweep_configs(suite, runs=2)
    got = [(str(c.instance), c.restore.variant, c.restore.distance, c.bool_mode) for c in configs]
    assert got == expected
    for c in configs:
        assert (c.sum_mode, c.queue, c.bnb, c.runs) == ("native", "fifo", "tighten", 2)


def test_cli_sweep_runs_suite(capsys):
    assert main(["sweep", "--suite", "trail", "--runs", "1"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert {r["restore"] for r in rows} == {"trail", "copy"}
