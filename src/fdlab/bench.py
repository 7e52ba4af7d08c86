"""Benchmark harness: experiment matrices over (instance x configuration),
repeated runs with median/CoV aggregation, and CSV/JSON emission.

A configuration fully determines the search trajectory, so the trajectory
columns (nodes, backtracks, solutions, the tree fingerprint, restoration
counters) must agree across repetitions; only the timings vary.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import time
from dataclasses import dataclass, fields
from operator import attrgetter, index

from .model import BOOL_NATIVE, SUM_NATIVE, ModelError
from .problems import Instance, build, check_solution
from .restore import RestoreMode
from .search import minimize, nodes_per_second, solve

#: The trajectory columns of a record, each with the ``SearchStats``
#: attribute it is read from.
_TRAJECTORY = {
    "nodes": "nodes",
    "backtracks": "backtracks",
    "solutions": "solutions",
    "fingerprint": "fingerprint",
    "bytes_copied": "restore.bytes_copied",
    "trail_entries": "restore.trail_entries",
    "snapshots": "restore.snapshots_taken",
    "recomputations": "restore.recomputations",
    "replayed_decisions": "restore.replayed_decisions",
}
_trajectory = attrgetter(*_TRAJECTORY.values())


@dataclass(frozen=True)
class RunConfig:
    """One experiment cell; deterministic, no seeds involved."""

    instance: Instance
    bool_mode: str = BOOL_NATIVE
    sum_mode: str = SUM_NATIVE
    restore: RestoreMode = RestoreMode.trail()
    queue: str = "fifo"
    bnb: str = "tighten"
    runs: int = 5

    def __post_init__(self):
        try:
            runs = index(self.runs)
        except TypeError:
            runs = 0
        if runs < 1:
            raise ValueError(f"runs {self.runs!r} is not a positive integer")
        # Keep the plain int, so runs=True is 1 in the CSV; the class is frozen.
        object.__setattr__(self, "runs", runs)
        if not isinstance(self.restore, RestoreMode):
            raise ValueError(f"restore {self.restore!r} is not a RestoreMode")


@dataclass
class RunRecord:
    """Aggregated result of one configuration, ready for emission."""

    model: str
    instance: str
    extended: bool
    bool_mode: str
    sum_mode: str
    restore: str
    rec_dist: int | None
    queue: str
    bnb: str
    runs: int
    nodes: int = 0
    backtracks: int = 0
    solutions: int = 0
    fingerprint: int = 0
    setup_ms_median: float = 0.0
    solve_ms_median: float = 0.0
    cov: float = 0.0
    nps: float = 0.0
    bytes_copied: int = 0
    trail_entries: int = 0
    snapshots: int = 0
    recomputations: int = 0
    replayed_decisions: int = 0
    error: str | None = None

    @classmethod
    def from_config(cls, config):
        inst = config.instance
        return cls(
            model=inst.problem,
            instance=",".join(str(p) for p in inst.params),
            extended=inst.extended,
            bool_mode=config.bool_mode,
            sum_mode=config.sum_mode,
            restore=config.restore.variant,
            rec_dist=config.restore.distance,
            queue=config.queue,
            bnb=config.bnb if inst.is_optimization else "",
            runs=config.runs,
        )


#: Exact emission order for both CSV and JSON: every record field but
#: ``error``.
CSV_COLUMNS = [f.name for f in fields(RunRecord) if f.name != "error"]


def run_once(config):
    """Build and solve one configuration once; returns (stats, failure).

    ``failure`` is None on success, otherwise a description (no solution
    found, or a solution the independent checker rejected).
    """
    inst = config.instance
    t0 = time.perf_counter()
    model = build(inst, bool_mode=config.bool_mode, sum_mode=config.sum_mode)
    build_ms = (time.perf_counter() - t0) * 1e3
    common = dict(restore=config.restore, queue=config.queue, build_ms=build_ms)
    if inst.is_optimization:
        best, stats = minimize(model, bnb=config.bnb, **common)
    else:
        sols, stats = solve(model, mode="first", **common)
        best = sols[0] if sols else None
    if best is None:
        return stats, "infeasible"
    bad = check_solution(inst, best.values)
    return stats, (f"checker rejected solution: {bad}" if bad else None)


def run_matrix(configs):
    """Execute each configuration ``runs`` times and aggregate.

    A configuration that fails to build, whose solution fails the checker
    or whose trajectory differs between runs yields a record with
    ``error`` set; the matrix continues.
    Infeasible instances are reported in the record, not as errors.
    """
    records = []
    for config in configs:
        record = RunRecord.from_config(config)
        setup_times = []
        solve_times = []
        reference = None
        try:
            for _ in range(config.runs):
                stats, failure = run_once(config)
                if failure and failure != "infeasible":
                    raise ModelError(failure)
                trajectory = _trajectory(stats)
                if reference is None:
                    reference = trajectory
                elif trajectory != reference:
                    raise ModelError(
                        "non-deterministic trajectory for "
                        f"{config.instance}: {trajectory} != {reference}"
                    )
                setup_times.append(stats.setup_ms)
                solve_times.append(stats.solve_ms)
        except (ModelError, ValueError) as exc:
            record.error = str(exc)
            records.append(record)
            continue
        for name, value in zip(_TRAJECTORY, reference):
            setattr(record, name, value)
        record.setup_ms_median = statistics.median(setup_times)
        record.solve_ms_median = statistics.median(solve_times)
        record.cov = cov(solve_times)
        record.nps = nodes_per_second(record.nodes, record.solve_ms_median)
        records.append(record)
    return records


def cov(values):
    """Coefficient of variation: population standard deviation over mean.

    Zero for a single observation or a zero mean.
    """
    vals = list(values)
    if len(vals) < 2:
        return 0.0
    mean = statistics.fmean(vals)
    if mean == 0:
        return 0.0
    return statistics.pstdev(vals) / mean


def emit(records, format="csv"):
    """The records as CSV or JSON text, in deterministic (input) order."""
    if not records:
        raise ValueError("no records to emit")
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format {format!r}")
    rows = [{col: getattr(r, col) for col in CSV_COLUMNS} for r in records]
    if format == "json":
        return json.dumps(rows, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
    return buf.getvalue()
