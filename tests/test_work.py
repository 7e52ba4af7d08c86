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

#: (instance, restore, queue, bnb) -> counts.  golomb:7 is minimised under
#: both branch-and-bound modes; the others stop at their first solution and
#: have no ``bnb``.
WORK = {
    ("golomb:7", RestoreMode.copy_recompute(8), "priority", "tighten"): {
        "fixpoint": 3_740, "DiffProp": 82_277, "LeProp": 19_634, "AllDiffValueProp": 1_592,
    },
    ("golomb:7", RestoreMode.copy_recompute(8), "priority", "post"): {
        "fixpoint": 3_740, "DiffProp": 82_207, "LeProp": 19_630, "AllDiffValueProp": 1_592,
        "UpperBoundProp": 45,
    },
    ("queens:14", RestoreMode.trail(), "fifo", None): {
        "fixpoint": 706, "DiffProp": 40_275, "AllDiffValueProp": 806,
    },
    ("golfers:2,5,4", RestoreMode.copy(), "fifo", None): {
        "fixpoint": 26_643, "BoolAndProp": 492_237, "BoolSumProp": 141_079,
        "LexLeqProp": 155_160,
    },
}


def _counting(counts, key, fn):
    def counted(*args):
        counts[key] += 1
        return fn(*args)

    return counted


def _config_id(config):
    """``instance-variant``, with ``-post`` for the one ``bnb='post'`` row."""
    name, restore, _, bnb = config
    return f"{name}-{restore.variant}" + ("-post" if bnb == "post" else "")


@pytest.mark.parametrize("config", list(WORK), ids=_config_id)
def test_fixpoints_and_runs_per_class(config, monkeypatch):
    name, restore, queue, bnb = config
    counts = Counter()
    monkeypatch.setattr(Engine, "fixpoint", _counting(counts, "fixpoint", Engine.fixpoint))
    for cls in vars(fdlab.constraints).values():
        if isinstance(cls, type) and issubclass(cls, Propagator) and "propagate" in vars(cls):
            monkeypatch.setattr(cls, "propagate", _counting(counts, cls.__name__, cls.propagate))
    instance = parse_instance(name)
    model = build(instance)
    if instance.is_optimization:
        minimize(model, bnb=bnb, restore=restore, queue=queue)
    else:
        solve(model, mode="first", restore=restore, queue=queue)
    assert dict(counts) == WORK[config]
