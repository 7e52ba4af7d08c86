#!/usr/bin/env python3
"""Benchmark of the fdlab solver: one workload per process, closed loop.

    python3 perfbench/run.py --workload queens-trail --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the solver is imported from ``src/``.  The
run solves its workload (``perfbench/workloads.json``) again and again, one
solve at a time, until ``--seconds`` are used up, and checks every solve: the
trajectory (nodes, backtracks, solutions, and the optimum for minimisation)
must equal the recorded one and every returned solution must pass
``check_solution``.  A solve that raises or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
Their times are in reference-speed seconds: each timed stretch is scaled by
the speed the host showed on a fixed calibration slice next to it (see
``Yardstick``), so that a host that runs everything slower for a minute does
not move them.
``--trace 1`` alternates untraced and traced solves and reports the
per-layer metrics (see ``tracer.py``); the traced solves' spans are written
to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The seed only orders
the set-up probes and solves; the solver is deterministic, so every
trajectory must be the same whatever the seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up-only solves per untraced run; ``setup_s`` is their median.
SETUP_PROBES = 21
#: Size of one calibration slice: steps of its compute part, and copies of
#: CAL_MASKS in its copy part.  The copy part takes about a quarter of the
#: slice: with the compute part alone, golfers-copy's snapshot-heavy solves
#: slowed more than the slice did when the host's caches were contended.
CAL_STEPS = 20000
CAL_WORDS = 2048
CAL_COPIES = 48
#: Distinct large ints, as a domain store's masks are, so a copy touches
#: every one of them (about 1 MB, part of ``baseline_mem_mb``).
CAL_MASKS = [(i * 2654435761) << 40 for i in range(20000)]
#: Seconds a slice takes on the reference host.  On 2 cores of a shared host
#: it takes from about 9 ms, when the host is quiet, to twice that.
CAL_REF_S = 0.010
#: Wall seconds between calibration slices taken inside a solve.
TICK_S = 0.1
#: Largest allowed gap between the sum of the layers' self times and the
#: traced solve's wall time, as a share of the latter.
SELF_TIME_TOLERANCE = 0.03

clock = time.perf_counter


def load_fdlab(root=ROOT):
    """Import the solver from the checkout's sources, never from elsewhere."""
    src = root / "src"
    if not (src / "fdlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fdlab sources under {src}")
    sys.path.insert(0, str(src))
    import fdlab

    return fdlab


def calibration_slice():
    """Run one fixed piece of pure-Python work and return its wall seconds.

    It mixes what the solver spends its time on: list indexing, integer and
    bit operations and dict updates, then copies of a list of large ints, as
    a snapshot does.
    """
    t0 = clock()
    words = list(range(CAL_WORDS))
    counts = {}
    acc = 0
    for i in range(CAL_STEPS):
        j = (i * 7919) & (CAL_WORDS - 1)
        w = words[j]
        acc = (acc + (w >> 3) ^ (w & 255)) & 0xFFFF
        words[j] = acc
        counts[acc & 255] = counts.get(j & 255, 0) + 1
        if not i & 1023:
            words = words[:]
    for _ in range(CAL_COPIES):
        copy = list(CAL_MASKS)
    del copy
    return clock() - t0


class Yardstick:
    """Host speed next to one timed region, from calibration slices.

    The shared host runs the same code up to twice as slowly at some moments
    as at others, and whole minutes are slower than others.  A slice is
    taken before and after the region and, while ``ticking()``, every
    ``TICK_S`` seconds inside it, from a ``SIGALRM`` handler, so the program
    itself is not touched.  ``reference_seconds`` removes the slices from an
    interval and scales each stretch between two slices by ``CAL_REF_S``
    over the mean of those two slices.
    """

    def __init__(self):
        self.samples = []  # (start, end, slice seconds), in time order
        self._sampling = False

    def sample(self, *_signal_args):
        # A slice stalled past TICK_S must not start another inside itself.
        if self._sampling:
            return
        self._sampling = True
        try:
            t0 = clock()
            cal_s = calibration_slice()
            self.samples.append((t0, clock(), cal_s))
        finally:
            self._sampling = False

    @contextmanager
    def ticking(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def reference_seconds(self, start, end):
        """Seconds at reference speed of the wall interval [start, end], less
        the slices taken inside it.  Needs a slice before and after it."""
        inside = [s for s in self.samples if start <= s[0] < end]
        before = [s for s in self.samples if s[0] < start][-1]
        after = next(s for s in self.samples if s[0] >= end)
        marks = [before, *inside, after]
        edges = [start, *(t for s in inside for t in s[:2]), end]
        total = 0.0
        for i in range(len(marks) - 1):
            stretch = edges[2 * i + 1] - edges[2 * i]
            total += stretch * 2 * CAL_REF_S / (marks[i][2] + marks[i + 1][2])
        return total


def peak_rss_mb():
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_workloads(path=HERE / "workloads.json"):
    with open(path) as f:
        return json.load(f)


def declared_metrics(trace, path=ROOT / "BENCHMARK.json"):
    with open(path) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


class Workload:
    """One workload: an instance, a search configuration and the trajectory
    every solve of it must reproduce."""

    def __init__(self, fd, name, spec):
        self.fd = fd
        self.name = name
        self.instance = fd.parse_instance(spec["instance"])
        self.search = spec["search"]
        self.bnb = spec.get("bnb", "tighten")
        self.restore = _restore_mode(fd, spec["restore"])
        self.queue = spec["queue"]
        self.expect = dict(spec["expect"])

    def options(self, build_s):
        return {"restore": self.restore, "queue": self.queue, "build_ms": build_s * 1e3}


def _restore_mode(fd, text):
    variant, _, distance = text.partition(":")
    if variant == "trail":
        return fd.RestoreMode.trail()
    if variant == "copy":
        return fd.RestoreMode.copy()
    if variant == "copy-recompute":
        return fd.RestoreMode.copy_recompute(int(distance))
    raise ValueError(f"unknown restore mode {text!r}")


@dataclass
class SolveResult:
    build_s: float
    wall_s: float  # the solve()/minimize() call
    setup_s: float  # SearchStats.setup_ms: build plus root propagation
    search_s: float  # SearchStats.solve_ms: after root propagation to search end
    search_end: float  # clock() when the solve call returned
    check_s: float
    nodes: int
    trajectory: dict
    restore: object
    problems: list = field(default_factory=list)
    layers: dict | None = None  # per-layer metrics of a traced solve
    search_ref_s: float = 0.0  # search_s at reference speed, slices removed


def solve_once(wl, tracer=None, yardstick=None):
    """Build, solve and check the workload once.  With a yardstick, its
    calibration slices tick inside the solve call."""
    fd = wl.fd
    t0 = clock()
    model = fd.build(wl.instance)
    build_s = clock() - t0
    if tracer is not None:
        tracer.install()
        tracer.begin()
    try:
        t1 = clock()
        with yardstick.ticking() if yardstick is not None else nullcontext():
            if wl.search == "minimize":
                best, stats = fd.minimize(model, bnb=wl.bnb, **wl.options(build_s))
                solutions = [] if best is None else [best]
            else:
                solutions, stats = fd.solve(model, mode=wl.search, **wl.options(build_s))
            search_end = clock()
        wall_s = search_end - t1
    finally:
        if tracer is not None:
            tracer.end()
            tracer.remove()
    trajectory = {
        "nodes": stats.nodes,
        "backtracks": stats.backtracks,
        "solutions": stats.solutions,
    }
    if wl.search == "minimize":
        trajectory["objective"] = solutions[0].objective if solutions else None
    t2 = clock()
    problems = [p for p in (fd.check_solution(wl.instance, s.values) for s in solutions) if p]
    check_s = clock() - t2
    if not solutions:
        problems.append("no solution returned")
    if trajectory != wl.expect:
        problems.append(f"trajectory {trajectory} differs from the recorded {wl.expect}")
    return SolveResult(
        build_s=build_s,
        wall_s=wall_s,
        setup_s=stats.setup_ms / 1e3,
        search_s=stats.solve_ms / 1e3,
        search_end=search_end,
        check_s=check_s,
        nodes=stats.nodes,
        trajectory=trajectory,
        restore=stats.restore,
        problems=problems,
    )


def measured_solve(wl):
    """One untraced solve, with its search time at reference speed."""
    yardstick = Yardstick()
    yardstick.sample()
    r = solve_once(wl, yardstick=yardstick)
    yardstick.sample()
    r.search_ref_s = yardstick.reference_seconds(r.search_end - r.search_s, r.search_end)
    return r


def measured_probe(wl):
    """One set-up probe between two calibration slices; returns its set-up
    time at reference speed."""
    yardstick = Yardstick()
    yardstick.sample()
    start = clock()
    setup_s = probe_setup(wl)
    yardstick.sample()
    return yardstick.reference_seconds(start, start + setup_s)


def probe_setup(wl):
    """Set-up only: build, then solve with the branching list emptied, so
    ``solve()`` returns right after root propagation.  Returns set-up
    seconds measured as for a full solve (``SearchStats.setup_ms``)."""
    fd = wl.fd
    t0 = clock()
    model = fd.build(wl.instance)
    build_s = clock() - t0
    model.decision_vars = []
    _, stats = fd.solve(model, mode="first", **wl.options(build_s))
    if stats.nodes != 0:
        raise RuntimeError(f"set-up probe searched {stats.nodes} nodes")
    return stats.setup_ms / 1e3


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def run(self, op, *args):
        """Run one operation; a raise or a failed check counts as failed.

        The garbage of earlier operations is collected first, outside any
        timed region: a solve's model holds reference cycles, and leftovers
        would otherwise add to the next solve's time and peak memory.
        """
        gc.collect()
        self.attempted += 1
        try:
            result = op(*args)
        except Exception:  # one broken solve must not hide the rest of the run
            self.failed += 1
            self.notes.append(traceback.format_exc())
            return None
        problems = getattr(result, "problems", None)
        if problems:
            self.failed += 1
            self.notes.extend(problems)
        return result


def measure_untraced(wl, seed, seconds):
    """End-to-end metrics of one run.  Returns (tally, values, log lines)."""
    rng = random.Random(seed)
    tally = Tally()
    deadline = clock() + seconds
    ops = ["probe"] * SETUP_PROBES + ["solve"]
    rng.shuffle(ops)
    setups, solves = [], []
    for op in ops:
        if op == "probe":
            s = tally.run(measured_probe, wl)
            if s is not None:
                setups.append(s)
        else:
            r = tally.run(measured_solve, wl)
            if r is not None:
                solves.append(r)
    while solves:
        per_solve = statistics.median(r.build_s + r.wall_s + r.check_s for r in solves)
        if clock() + per_solve > deadline:
            break
        r = tally.run(measured_solve, wl)
        if r is not None:
            solves.append(r)
    if not solves or not setups:
        raise SystemExit("perfbench: no solve or set-up probe completed\n" + "\n".join(tally.notes))
    values = {
        "nodes_per_s": statistics.median(r.nodes / r.search_ref_s for r in solves),
        "solve_s_p50": statistics.median(r.search_ref_s for r in solves),
        "setup_s": statistics.median(setups),
        "peak_mem_mb": peak_rss_mb(),
    }
    log = [
        f"samples: {len(solves)} solves, {len(setups)} set-up probes",
        f"plain wall clock, calibration slices included: search {statistics.median(r.search_s for r in solves):.4f} s,"
        f" set-up {statistics.median(r.setup_s for r in solves):.4f} s (medians over the solves)",
    ]
    return tally, values, log


def measure_traced(wl, seed, seconds, tracer):
    """Per-layer metrics of one run: untraced and traced solves alternate, in
    an order the seed picks.  Returns (tally, values, log lines)."""
    rng = random.Random(seed)
    tally = Tally()
    deadline = clock() + seconds
    plain, traced = [], []
    while not traced or clock() + _pair_time(plain, traced) <= deadline:
        for is_traced in rng.sample([False, True], 2):
            if is_traced:
                r = tally.run(traced_solve, wl, tracer)
                if r is not None:
                    traced.append(r)
            else:
                r = tally.run(solve_once, wl)
                if r is not None:
                    plain.append(r)
        if not plain or not traced:
            raise SystemExit("perfbench: no traced/untraced pair completed\n" + "\n".join(tally.notes))
    for r in traced:
        if not r.problems and r.trajectory != plain[0].trajectory:
            tally.failed += 1
            tally.notes.append(f"traced trajectory {r.trajectory} != untraced {plain[0].trajectory}")
    values = median_metrics([r.layers for r in traced])
    everything = plain + traced
    values["problems.build_s"] = statistics.median(r.build_s for r in everything)
    values["problems.check_s"] = statistics.median(r.check_s for r in everything)
    values["trace.overhead_ratio"] = statistics.median(r.wall_s for r in traced) / statistics.median(
        r.wall_s for r in plain
    )
    log = [f"samples: {len(plain)} untraced, {len(traced)} traced solves"]
    log += [f"  {name:<44} {calls:>10} calls {self_s:10.4f} s self" for name, calls, self_s in tracer.top_entries()]
    return tally, values, log


def traced_solve(wl, tracer):
    """One traced solve, with its per-layer metrics and the self-time check."""
    r = solve_once(wl, tracer)
    r.layers = tracer.layer_metrics(r.wall_s)
    r.layers.update(_search_counts(r))
    ratio = r.layers["trace.self_time_ratio"]
    if abs(ratio - 1.0) > SELF_TIME_TOLERANCE:
        r.problems.append(f"layer self times sum to {ratio:.4f} of the traced solve")
    return r


def median_metrics(samples):
    """Per-key median over a list of metric dicts (missing keys read 0).
    Counts stay whole numbers."""
    out = {}
    for key in set().union(*samples):
        values = [s.get(key, 0) for s in samples]
        if all(isinstance(v, int) for v in values):
            out[key] = statistics.median_low(values)
        else:
            out[key] = statistics.median(values)
    return out


def _pair_time(plain, traced):
    return statistics.median(r.wall_s + r.build_s for r in plain) + statistics.median(
        r.wall_s + r.build_s for r in traced
    )


def _search_counts(r):
    counts = {f"search.{k}": v for k, v in r.trajectory.items() if k != "objective"}
    for metric, attr in (
        ("restore.bytes_copied", "bytes_copied"),
        ("restore.trail_entries", "trail_entries"),
        ("restore.snapshots", "snapshots_taken"),
        ("restore.recomputations", "recomputations"),
        ("restore.replayed_decisions", "replayed_decisions"),
    ):
        counts[metric] = getattr(r.restore, attr, 0)
    return counts


def measure(fd, wl, seed, seconds, trace, spans_dir=None):
    """One run of one workload.  Returns (result dict, log lines); the
    result's metrics map every declared name to {value, unit}."""
    baseline = peak_rss_mb()
    if trace:
        from tracer import Tracer

        tracer = Tracer(fd)
        tally, values, log = measure_traced(wl, seed, seconds, tracer)
        if spans_dir is not None:
            path = Path(spans_dir) / f"{wl.name}-seed{seed}.spans.jsonl"
            tracer.write_spans(path)
            log.append(f"spans written to {path}")
    else:
        tally, values, log = measure_untraced(wl, seed, seconds)
        values["baseline_mem_mb"] = baseline
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in declared_metrics(trace)
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    log.append(f"failed_frac: {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4f}")
    log += [f"  note: {n.strip()}" for n in tally.notes]
    return result, log


def main(argv=None):
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    fd = load_fdlab()
    wl = Workload(fd, args.workload, workloads[args.workload])
    print(f"workload {wl.name}: {wl.instance} search={wl.search} restore={wl.restore.variant}"
          f" queue={wl.queue} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    result, log = measure(fd, wl, args.seed, args.seconds, bool(args.trace), HERE / "out")
    for line in log:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
