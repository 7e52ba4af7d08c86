"""The committed tree ledger, ``tests/data/trees.json``.

Every configuration of one model explores the same search tree, and the
other tests check that within one version.  The ledger pins each tree
across versions: per instance, the nodes, backtracks, solutions, optimum
and fingerprint, and per restore mode the counters that depend only on the
tree (snapshots, recomputations, replayed decisions and bytes copied).
``trail_entries`` is left out, as it may change with the version
(``RestoreStats``).  Each instance is solved under ``trail`` and
``copy-recompute:8``, with the ``fifo`` queue and the native modes.

A change that alters a tree regenerates the file rather than editing it::

    PYTHONPATH=src python tests/test_tree_ledger.py
"""

import json
from pathlib import Path

from fdlab.problems import build, parse_instance
from fdlab.restore import RestoreMode
from fdlab.search import minimize, solve

LEDGER = Path(__file__).parent / "data" / "trees.json"

INSTANCES = (
    "queens:8",
    "queens:10",
    "queens:14",
    "golomb:5",
    "golomb:6",
    "golomb:7",
    "magic:3",
    "magic:4",
    "golfers:2,3,3",
    "golfers:2,4,4",
    "bibd:7,3,1",
    "bibd:7,3,2",
    "bibd:7,3,10",
    "bibd:6,3,2",
)

RESTORES = {
    "trail": RestoreMode.trail(),
    "copy-recompute:8": RestoreMode.copy_recompute(8),
}


def _solve(spec, restore):
    """The tree and the restore counters of one solve."""
    instance = parse_instance(spec)
    model = build(instance)
    if instance.is_optimization:
        best, stats = minimize(model, restore=restore)
        optimum = best.objective if best else None
    else:
        _, stats = solve(model, mode="first", restore=restore)
        optimum = None
    tree = {
        "nodes": stats.nodes,
        "backtracks": stats.backtracks,
        "solutions": stats.solutions,
        "optimum": optimum,
        "fingerprint": f"{stats.fingerprint:#018x}",
    }
    r = stats.restore
    counters = {
        "snapshots": r.snapshots_taken,
        "recomputations": r.recomputations,
        "replayed_decisions": r.replayed_decisions,
        "bytes_copied": r.bytes_copied,
    }
    return tree, counters


def ledger_row(spec):
    """The ledger row of one instance: its tree, which every restore mode
    must explore, and each mode's counters."""
    row = {}
    restore = {}
    for name, mode in RESTORES.items():
        tree, restore[name] = _solve(spec, mode)
        if row:
            assert tree == row, f"{spec}: {name} explored another tree"
        row = tree
    return {**row, "restore": restore}


def build_ledger():
    return {spec: ledger_row(spec) for spec in INSTANCES}


def test_trees_match_the_ledger():
    want = json.loads(LEDGER.read_text())
    assert list(want) == list(INSTANCES)
    for spec in INSTANCES:
        assert ledger_row(spec) == want[spec], spec


def main():
    LEDGER.parent.mkdir(exist_ok=True)
    LEDGER.write_text(json.dumps(build_ledger(), indent=2) + "\n")


if __name__ == "__main__":
    main()
