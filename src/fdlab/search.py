"""Depth-first search with binary branching, pluggable backtrack memory,
and two branch-and-bound modes.

One search class serves enumeration and minimisation: they walk the same
tree and differ only in what a solution does.  Branching picks the first
unassigned variable in the static order and tries x = v (smallest value)
then x != v.  Every action applied at a node is recorded in that node's
frame, so recomputation backends can replay the exact path, including the
objective-bound action that branch and bound prepends to each node.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .constraints import UpperBoundProp
from .domain import ASSIGN, FAILED, MAX, REMOVE
from .model import ModelError
from .propagate import Engine
from .restore import RestoreMode, RestoreStats, make_backend

# A node action is (op, var, value), narrowed with the Op; the one other
# action, (A_SCHED, pid, None), reschedules branch and bound's bounding
# propagator.  Actions are also the recomputation replay alphabet.
A_SCHED = None

# The tree fingerprint is FNV-1a taken over whole integers instead of bytes.
_FP_BASIS = 0xCBF29CE484222325
_FP_PRIME = 0x100000001B3
_FP_MASK = (1 << 64) - 1


def _fold(h, words):
    """Fold a sequence of integers into the 64-bit fingerprint ``h``."""
    for w in words:
        h = ((h ^ w) * _FP_PRIME) & _FP_MASK
    return h


def nodes_per_second(nodes, solve_ms):
    """Search throughput; guards against a zero-duration measurement."""
    return nodes / max(solve_ms / 1e3, 1e-9)


@dataclass
class SearchStats:
    """Counters of one solve.  ``fingerprint`` is a 64-bit hash of the tree:
    per node, the branching variable's index in ``decision_vars`` (not its
    id, which differs between the Boolean modes), the branching action's op
    and value and whether the node failed, plus each solution's values and
    each incumbent objective.  Like the counts, it is the same for every
    configuration of one model."""

    nodes: int = 0
    backtracks: int = 0
    solutions: int = 0
    fingerprint: int = _FP_BASIS
    setup_ms: float = 0.0
    solve_ms: float = 0.0
    restore: RestoreStats = field(default_factory=RestoreStats)


@dataclass(frozen=True)
class Solution:
    """Values of the decision variables in branch order."""

    values: tuple
    objective: int | None = None


class _Search:
    """One solve.  Its ``store`` is an ``Engine``, a copy of the model's
    domains that the search narrows, the backend restores and the model's
    propagators run on, so the model itself is never changed.

    With ``bnb`` None the search enumerates: it stops at the first solution
    or, under ``mode='all'``, collects every one.  With ``bnb`` set it is
    restart-free branch and bound: each solution is a new incumbent, and
    ``prefix``, the action every later node applies first, bounds the
    objective below it."""

    def __init__(self, model, restore, queue, mode, bnb=None):
        if mode not in ("first", "all"):
            raise ValueError(f"unknown search mode {mode!r}")
        if bnb not in (None, "tighten", "post"):
            raise ValueError(f"unknown branch-and-bound mode {bnb!r}")
        if bnb is not None and model.objective is None:
            raise ValueError("model has no objective variable")
        if not isinstance(restore, RestoreMode):
            raise ValueError(f"restore {restore!r} is not a RestoreMode")
        self.started = time.perf_counter()
        self.model = model
        self.mode = mode
        self.bnb = bnb
        self.store = Engine(model.store, model.props, queue)
        self.backend = make_backend(restore, self.store, self._replay)
        self.stats = SearchStats()
        self.solutions = []  # every solution, or every incumbent, in order
        self.prefix = []  # actions prepended to every node's own
        self.alts = []  # (depth, cursor, actions) of each open alternative
        self.depth = 0  # open nodes: the frames the backend holds
        self.cursor = 0  # index in decision_vars of the last branching variable

    def _replay(self, actions):
        # Replaying a previously consistent path with monotone propagators
        # cannot fail; if it does, a backend restored the wrong state.  The
        # guard covers the one segment a backend replays itself, the one
        # before a midpoint snapshot; the last segment comes back as a tail
        # and is propagated with the next node instead.
        if not self.descend(actions):
            raise RuntimeError("recomputation replay failed")

    def root(self):
        self.store.schedule_all()
        return self.store.fixpoint()

    def first_unassigned(self):
        """The first unassigned decision variable, scanned from the cursor:
        domains only shrink along a branch, so every variable before the one
        the parent branched on is still assigned."""
        size = self.store.size
        decision_vars = self.model.decision_vars
        for i in range(self.cursor, len(decision_vars)):
            var = decision_vars[i]
            if size(var) > 1:
                self.cursor = i
                return var
        return None

    def try_node(self, actions, tail=()):
        """Open a node and propagate it.  ``tail`` is the recomputation a
        backtrack left: it is applied ahead of ``actions`` and shares their
        fixpoint, but the frame records only ``actions``.  A replayed path
        cannot fail on its own, so a failure here is the node's."""
        self.backend.open_node(actions)
        self.depth += 1
        stats = self.stats
        stats.nodes += 1
        ok = self.descend(tail + actions if tail else actions)
        # The branching action is the last; prefix actions are not hashed.
        op, _, value = actions[-1]
        stats.fingerprint = _fold(stats.fingerprint, (self.cursor << 3 | op << 1 | ok, value))
        return ok

    def descend(self, actions):
        """Apply a node's actions to the store, narrowing a variable or
        rescheduling a pid, and propagate."""
        store = self.store
        for op, target, value in actions:
            if op is A_SCHED:
                store.push(target)
            elif store.narrow(target, op, value) is FAILED:
                store.clear()
                return False
        return store.fixpoint()

    def unwind(self):
        """Retreat to the nearest open alternative and take it.  Returns
        False when the tree is exhausted.  The backtrack may leave a tail of
        recomputation, which the alternative's node propagates with its own
        actions."""
        while self.alts:
            self.depth, self.cursor, actions = self.alts.pop()
            tail = self.backend.backtrack_to(self.depth)
            if self.try_node(self.prefix + actions, tail):
                return True
            self.stats.backtracks += 1
        return False

    def branch(self):
        """Expand one node.  Returns False when the subtree under the
        current node is finished and no alternative is left."""
        var = self.first_unassigned()
        if var is None:
            return self.on_solution()
        v = self.store.min(var)
        self.alts.append((self.depth, self.cursor, [(REMOVE, var, v)]))
        if self.try_node(self.prefix + [(ASSIGN, var, v)]):
            return True
        self.stats.backtracks += 1
        return self.unwind()

    def on_solution(self):
        """Record the solution at the current node; returns whether the
        search goes on.  An incumbent sets ``prefix`` to bound the objective
        below its value: ``tighten`` narrows the bound at every later node,
        ``post`` adds an ``UpperBoundProp`` once and reschedules it there."""
        store, stats = self.store, self.stats
        values = tuple(map(store.value, self.model.decision_vars))
        stats.solutions += 1
        if self.bnb is None:
            self.solutions.append(Solution(values))
            stats.fingerprint = _fold(stats.fingerprint, values)
            return self.mode == "all" and self.unwind()
        objective = self.model.objective
        if store.size(objective) > 1:
            raise ModelError(f"objective {objective} is not fixed when every decision variable is")
        value = store.min(objective)
        self.solutions.append(Solution(values, value))
        stats.fingerprint = _fold(stats.fingerprint, values + (value,))
        if self.bnb == "tighten":
            self.prefix = [(MAX, objective, value - 1)]
        else:
            self.prefix = [(A_SCHED, store.add(UpperBoundProp(objective, value - 1)), None)]
        return self.unwind()

    def run(self, build_ms=0.0):
        ok = self.root()
        self.stats.setup_ms = build_ms + (time.perf_counter() - self.started) * 1e3
        t1 = time.perf_counter()
        if ok:
            while self.branch():
                pass
        self.stats.solve_ms = (time.perf_counter() - t1) * 1e3
        self.stats.restore = self.backend.stats
        return self.solutions, self.stats


def solve(model, *, mode="first", restore=RestoreMode.trail(), queue="fifo", build_ms=0.0):
    """Run DFS; returns (solutions, stats).  ``mode`` is 'first' or 'all'.
    The model is left as it was."""
    return _Search(model, restore, queue, mode).run(build_ms)


def minimize(model, *, bnb="tighten", restore=RestoreMode.trail(), queue="fifo", build_ms=0.0):
    """Restart-free branch and bound; returns (best solution or None, stats).

    ``bnb='tighten'`` narrows the objective's upper bound below each
    incumbent; ``bnb='post'`` posts a new bounding constraint instead.
    Both prove the same optimum.  The model is left as it was.
    """
    incumbents, stats = _Search(model, restore, queue, "all", bnb).run(build_ms)
    return (incumbents[-1] if incumbents else None), stats
