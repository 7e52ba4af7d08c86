"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with the measured evidence."""

import itertools
import random
import time
from statistics import median

import pytest

from fdlab.bench import cov
from fdlab.cli import main
from fdlab.data import table_rows
from fdlab.problems import build, check_solution, counts, parse_instance
from fdlab.restore import RestoreMode
from fdlab.search import minimize, nodes_per_second, solve

from shadow import shadow_backends
from test_search import golomb_oracle, magic_oracle, queens_oracle


@pytest.fixture
def report(capsys):
    """One PASS/FAIL line per criterion, written past pytest's capture."""

    def _report(num, name, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        line = f"[criterion {num}] {name}: {status}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def test_criterion_1_model_sizes(report):
    t0 = time.perf_counter()
    bad = []
    rows = table_rows("table2")
    for row in rows:
        inst = parse_instance(f"{row['model']}:{row['instance']}")
        got = counts(inst)
        want = (row["variables"], row["constraints"], row["constraints_decomposed"])
        have = (got.variables, got.constraints_native, got.constraints_decomposed)
        if have != want:
            bad.append((str(inst), have, want))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "model-size table reproduced exactly",
        not bad and elapsed < 10,
        f"{len(rows)} instances, {elapsed:.1f}s" + (f"; mismatches {bad}" if bad else ""),
    )


def test_criterion_2_extended_sizes(report):
    bad = []
    rows = table_rows("table4")
    for row in rows:
        inst = parse_instance(f"{row['model']}:{row['instance']}+ext")
        got = counts(inst).variables
        if got != row["variables_extended"]:
            bad.append((str(inst), got, row["variables_extended"]))
    report(
        2,
        "extended-model variable counts reproduced exactly",
        not bad,
        f"{len(rows)} instances" + (f"; mismatches {bad}" if bad else ""),
    )


_RESTORES = [
    RestoreMode.trail(),
    RestoreMode.copy(),
    RestoreMode.copy_recompute(2),
    RestoreMode.copy_recompute(8),
    RestoreMode.copy_recompute(16),
    RestoreMode.copy_recompute(32),
]
_QUEUES = ["fifo", "priority", "reversed"]
_SUMS = ["native", "decomposed"]
_BOOLS = ["native", "int"]

_DESK_SUITE = [
    "queens:6",
    "queens:8",
    "golomb:7",
    "magic:4",
    "golfers:2,3,3",
    "golfers:2,4,4",
    "bibd:7,3,2",
]


def _trajectory(inst, restore, queue, sum_mode, bool_mode):
    model = build(inst, bool_mode=bool_mode, sum_mode=sum_mode)
    if inst.is_optimization:
        _, stats = minimize(model, restore=restore, queue=queue)
    else:
        mode = "all" if inst == parse_instance("queens:6") else "first"
        _, stats = solve(model, mode=mode, restore=restore, queue=queue)
    return stats.nodes, stats.backtracks, stats.solutions, stats.fingerprint


def test_criterion_3_trajectory_invariance(report):
    t0 = time.perf_counter()
    mismatches = []
    total = 0
    for name in _DESK_SUITE:
        inst = parse_instance(name)
        bools = _BOOLS if inst.problem in ("golfers", "bibd") else ["native"]
        # one-factor sweeps around the default configuration, plus the
        # full cross on the two smallest instances
        if name in ("queens:6", "golfers:2,3,3"):
            configs = set(itertools.product(_RESTORES, _QUEUES, _SUMS, bools))
        else:
            configs = {(_RESTORES[0], "fifo", "native", bools[0])}
            for r in _RESTORES:
                configs.add((r, "fifo", "native", bools[0]))
            for q in _QUEUES:
                configs.add((_RESTORES[0], q, "native", bools[0]))
            for s in _SUMS:
                configs.add((_RESTORES[0], "fifo", s, bools[0]))
            for b in bools:
                configs.add((_RESTORES[0], "fifo", "native", b))
        baseline = None
        for restore, queue, sum_mode, bool_mode in sorted(
            configs, key=lambda c: (str(c[0]), c[1:])
        ):
            got = _trajectory(inst, restore, queue, sum_mode, bool_mode)
            total += 1
            if baseline is None:
                baseline = got
            elif got != baseline:
                mismatches.append(
                    (name, restore.variant, queue, sum_mode, bool_mode, got, baseline)
                )
    elapsed = time.perf_counter() - t0
    report(
        3,
        "search trajectory invariant across configurations",
        not mismatches and elapsed < 120,
        f"{total} runs over {len(_DESK_SUITE)} instances, {elapsed:.1f}s"
        + (f"; mismatches {mismatches}" if mismatches else ""),
    )


def _shadow_run(name, primary_mode, bnb=None):
    """Mismatches and backtracks of one shadowed run: ``solve`` when
    ``bnb`` is None, else ``minimize`` in that branch-and-bound mode."""
    model = build(parse_instance(name))
    with pytest.MonkeyPatch.context() as mp:
        shadows = shadow_backends(mp)
        if bnb is None:
            mode = "all" if name == "queens:6" else "first"
            _, stats = solve(model, mode=mode, restore=primary_mode)
        else:
            best, stats = minimize(model, bnb=bnb, restore=primary_mode)
            assert best is not None
    return shadows[0].mismatches, stats.backtracks


def test_criterion_4_restoration_oracle(report):
    """Every backtrack restores the domains bit for bit and the pid states
    of its frame, with the pids that joined since idle.  A recomputing
    backtrack that leaves its last segment as a tail for the next node
    restores instead the state of its base frame, the last one below the
    target that holds a snapshot, and its tail must be the actions of the
    frames from the base up to the target, in order.  Branch and bound
    is covered too: its prefix actions narrow the objective, or wake the
    bound, inside a node that may already have changed it, and under
    ``post`` each incumbent adds a bound that joins after older frames."""
    runs = [
        (name, primary, None)
        for name in ("queens:6", "golfers:2,3,3")
        for primary in (
            RestoreMode.trail(),
            RestoreMode.copy(),
            RestoreMode.copy_recompute(3),
            RestoreMode.copy_recompute(8),
        )
    ]
    runs += [
        ("golomb:6", primary, bnb)
        for primary in (RestoreMode.trail(), RestoreMode.copy(), RestoreMode.copy_recompute(3))
        for bnb in ("tighten", "post")
    ]
    results = []
    for name, primary, bnb in runs:
        mismatches, backtracks = _shadow_run(name, primary, bnb)
        label = primary.variant
        if label == "copy-recompute":
            label += f":{primary.distance}"
        if bnb is not None:
            label += f"/{bnb}"
        results.append((name, label, mismatches, backtracks))
    ok = all(m == 0 for _, _, m, _ in results)
    exercised = all(b > 0 for _, _, _, b in results)
    report(
        4,
        "shadow restoration matches the copy reference after every backtrack",
        ok and exercised,
        "; ".join(f"{n}/{v}: {m} mismatches over {b} backtracks" for n, v, m, b in results),
    )


def test_criterion_5_solution_correctness(report):
    checks = []
    for name, oracle in (
        ("queens:4", queens_oracle(4)),
        ("queens:6", queens_oracle(6)),
        ("magic:3", magic_oracle(3)),
    ):
        inst = parse_instance(name)
        sols, _ = solve(build(inst), mode="all")
        valid = all(check_solution(inst, s.values) is None for s in sols)
        checks.append((name, len(sols), oracle, valid))
    ok = all(n == want and valid for _, n, want, valid in checks)
    expected = {("queens:4", 2), ("queens:6", 4), ("magic:3", 1)}
    ok = ok and {(n, c) for n, c, _, _ in checks} == expected
    report(
        5,
        "solution counts equal the brute-force oracle and all pass the checker",
        ok,
        "; ".join(f"{n}: {c} (oracle {w})" for n, c, w, _ in checks),
    )


def test_criterion_6_optimization(report):
    t0 = time.perf_counter()
    optima = []
    for m, want in ((5, 11), (6, 17), (7, 25)):
        assert golomb_oracle(m) == want
        best, _ = minimize(build(parse_instance(f"golomb:{m}")))
        optima.append((m, best.objective, want))
    agreement = []
    for m in range(4, 10):
        inst = parse_instance(f"golomb:{m}")
        best_t, stats_t = minimize(build(inst), bnb="tighten")
        best_p, stats_p = minimize(build(inst), bnb="post")
        same_tree = (stats_t.nodes, stats_t.fingerprint) == (
            stats_p.nodes,
            stats_p.fingerprint,
        )
        agreement.append((m, best_t.objective == best_p.objective, same_tree))
    elapsed = time.perf_counter() - t0
    ok = (
        all(got == want for _, got, want in optima)
        and all(same_opt and same_nodes for _, same_opt, same_nodes in agreement)
        and elapsed < 300
    )
    report(
        6,
        "optima match the oracle and both bounding modes agree",
        ok,
        f"optima {[(m, g) for m, g, _ in optima]}, modes agree m<=9, {elapsed:.0f}s",
    )


def test_criterion_7_variable_count_sensitivity(report):
    def run(name, restore):
        _, stats = solve(build(parse_instance(name)), mode="first", restore=restore)
        return stats

    normal_copy = run("queens:8", RestoreMode.copy())
    ext_copy = run("queens:8+ext", RestoreMode.copy())
    normal_trail = run("queens:8", RestoreMode.trail())
    ext_trail = run("queens:8+ext", RestoreMode.trail())

    per_node_normal = normal_copy.restore.bytes_copied / normal_copy.nodes
    per_node_ext = ext_copy.restore.bytes_copied / ext_copy.nodes
    ratio = per_node_ext / per_node_normal
    trails = (normal_trail.restore.trail_entries, ext_trail.restore.trail_entries)
    trajectories = {
        (s.nodes, s.backtracks, s.solutions)
        for s in (normal_copy, ext_copy, normal_trail, ext_trail)
    }
    ok = ratio >= 4 and trails[0] == trails[1] and len(trajectories) == 1
    report(
        7,
        "padding grows copied bytes but not trail entries or the search",
        ok,
        f"bytes/node ratio {ratio:.1f}x, trail entries {trails[0]} vs {trails[1]}",
    )


def test_criterion_8_statistics(report):
    rng = random.Random(20260823)
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(2, 12)
        values = [rng.uniform(0.1, 1000.0) for _ in range(n)]
        ordered = sorted(values)
        mid = n // 2
        direct_median = (
            ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
        )
        mean = sum(values) / n
        direct_cov = (
            sum((v - mean) ** 2 for v in values) / n
        ) ** 0.5 / mean
        err = abs(median(values) - direct_median) / direct_median
        err = max(err, abs(cov(values) - direct_cov) / max(direct_cov, 1e-300))
        worst = max(worst, err)
    nps_ok = nodes_per_second(12345, 500.0) == 12345 / 0.5
    report(
        8,
        "median/CoV match direct formulas and nps is definitional",
        worst <= 1e-12 and nps_ok,
        f"worst relative error {worst:.2e}",
    )


def test_criterion_9_reference_backtracks_shipped(report, capsys):
    rows = table_rows("table3")
    exit_code = main(["table3"])
    out = capsys.readouterr().out
    ok = (
        exit_code == 0
        and len(rows) == 24
        and "not asserted" in out
        and all(str(r["backtracks"]) in out for r in rows)
    )
    report(
        9,
        "reference backtrack table ships as loadable, non-asserted data",
        ok,
        f"{len(rows)} rows via the table3 subcommand",
    )
