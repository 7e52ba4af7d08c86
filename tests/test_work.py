"""Pinned propagation work: the number of fixpoints and of runs per
propagator class that one solve takes, for three configurations.

The tree ledger shows that a change kept the search tree; these counts
show that it kept, or cut, the work spent on it.  Both are a function of
the tree, the restore backend and the queue policy alone, so they hold
across repetitions.  A change that alters the work on purpose updates
``WORK`` and says so.
"""

from collections import Counter

import pytest

import fdlab.constraints
from fdlab.problems import build, parse_instance
from fdlab.propagate import Engine, Propagator
from fdlab.restore import RestoreMode
from fdlab.search import minimize, solve

#: (instance, restore, queue) -> counts.  golomb:7 is minimised with
#: ``bnb='tighten'``; the others stop at their first solution.
WORK = {
    ("golomb:7", RestoreMode.copy_recompute(8), "priority"): {
        "fixpoint": 3_740, "DiffProp": 82_277, "LeProp": 19_634, "AllDiffValueProp": 1_592,
    },
    ("queens:14", RestoreMode.trail(), "fifo"): {
        "fixpoint": 706, "DiffProp": 40_275, "AllDiffValueProp": 806,
    },
    ("golfers:2,5,4", RestoreMode.copy(), "fifo"): {
        "fixpoint": 26_643, "BoolAndProp": 492_237, "BoolSumProp": 141_079,
        "LexLeqProp": 155_160,
    },
}


def _counting(counts, key, fn):
    def counted(*args):
        counts[key] += 1
        return fn(*args)

    return counted


@pytest.mark.parametrize("config", list(WORK), ids=lambda c: f"{c[0]}-{c[1].variant}")
def test_fixpoints_and_runs_per_class(config, monkeypatch):
    name, restore, queue = config
    counts = Counter()
    monkeypatch.setattr(Engine, "fixpoint", _counting(counts, "fixpoint", Engine.fixpoint))
    for cls in vars(fdlab.constraints).values():
        if isinstance(cls, type) and issubclass(cls, Propagator) and "propagate" in vars(cls):
            monkeypatch.setattr(cls, "propagate", _counting(counts, cls.__name__, cls.propagate))
    instance = parse_instance(name)
    model = build(instance)
    if instance.is_optimization:
        minimize(model, bnb="tighten", restore=restore, queue=queue)
    else:
        solve(model, mode="first", restore=restore, queue=queue)
    assert dict(counts) == WORK[config]
