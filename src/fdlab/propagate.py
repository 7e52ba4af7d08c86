"""Event-driven propagation engine with a policy-ordered queue.

Propagators subscribe to (variable, event class) pairs and are run to a
fixpoint.  The model owns the propagators and their subscriptions; each
solve builds one ``Engine`` for its queue and entailment state.  All
propagators are monotone and contracting, so the fixpoint reached is unique
regardless of the queue policy; only the amount of work to get there
differs.
"""

from __future__ import annotations

from collections import deque

from .domain import FAILED

# Propagator outcomes.
AT_FIXPOINT = 0
PROP_FAILED = 1
SUBSUMED = 2

# Queue buckets, popped in this order under the ``priority`` policy.
PRIORITY_CHEAP = 0  # arity <= 3: disequalities, orderings, conjunction
PRIORITY_LINEAR = 1  # linear and Boolean sums
PRIORITY_GLOBAL = 2  # alldifferent, lex
NUM_PRIORITIES = 3


class Propagator:
    """Monotone, contracting filtering function for one constraint."""

    priority = PRIORITY_LINEAR

    def subscriptions(self):
        """Yield (variable, EventClass) wake-up conditions."""
        return ()

    def propagate(self, eng):
        raise NotImplementedError


class Engine:
    """The propagation state of one solve, built by the solve over its fork
    of the store and the model's propagators and subscriptions (variable ->
    list of (pid, min event class)).  It copies the propagator list, so
    what the solve adds stays out of the model, reads the subscriptions
    without changing them, and owns the queue, the entailment record and
    the running slot.

    ``fifo`` ignores priorities; ``priority`` pops the lowest priority value
    first; ``reversed`` pops the highest first.  Within equal priority, FIFO
    order breaks ties.  Each propagator's bucket is resolved once, when it
    joins the engine, so a push makes no policy test.
    """

    # The bucket of each priority under each policy; fixpoint pops the
    # first non-empty bucket.
    _BUCKET_OF = {"fifo": (0, 0, 0), "priority": (0, 1, 2), "reversed": (2, 1, 0)}
    POLICIES = tuple(_BUCKET_OF)

    def __init__(self, store, props, subs, policy="fifo"):
        if policy not in self.POLICIES:
            raise ValueError(f"unknown queue policy {policy!r}")
        self.store = store
        self.props = list(props)
        self.subs = subs
        bucket_of = self._BUCKET_OF[policy]
        buckets = self._buckets = [deque() for _ in range(max(bucket_of) + 1)]
        by_priority = self._by_priority = tuple(buckets[b] for b in bucket_of)
        self._bucket = [by_priority[p.priority] for p in self.props]  # pid -> its deque
        self.pending = bytearray(len(self.props))  # pid -> 1 while queued
        self.subsumed = {}  # pid -> search depth at which it became entailed
        self._entailed = []  # the pids of subsumed, in the order marked
        self.running = None

    def add(self, prop):
        """Add a propagator to this solve only (branch and bound's bound).
        The subscription table is the model's, so it must subscribe to
        nothing; it runs when scheduled by pid."""
        if list(prop.subscriptions()):
            raise ValueError("a propagator added during a solve must not subscribe")
        pid = len(self.props)
        self.props.append(prop)
        self._bucket.append(self._by_priority[prop.priority])
        self.pending.append(0)
        return pid

    def narrow(self, var, op, value):
        """Single mutation entry point for propagators: narrow + schedule."""
        r = self.store.narrow(var, op, value)
        if r is not None and r is not FAILED:
            self.dispatch(var, r)
        return r

    def dispatch(self, var, strength):
        subs = self.subs.get(var)
        if not subs:
            return
        push = self.push
        running = self.running
        subsumed = self.subsumed
        for pid, min_class in subs:
            if strength >= min_class and pid != running and pid not in subsumed:
                push(pid)

    def push(self, pid):
        """Queue ``pid`` unless it is already queued."""
        pending = self.pending
        if not pending[pid]:
            pending[pid] = 1
            self._bucket[pid].append(pid)

    def __contains__(self, pid):
        """True while ``pid`` is queued."""
        return self.pending[pid] == 1

    def clear(self):
        """Empty the queue."""
        pending = self.pending
        for bucket in self._buckets:
            for pid in bucket:
                pending[pid] = 0
            bucket.clear()

    def schedule_pid(self, pid):
        if pid not in self.subsumed:
            self.push(pid)

    def schedule_all(self):
        for pid in range(len(self.props)):
            self.schedule_pid(pid)

    def unsubsume_above(self, depth):
        """Re-enable propagators subsumed deeper than ``depth``.

        Entailment is recorded at the current depth, and every backtrack or
        replay unsubsumes down to its target before it records anything
        deeper, so depths never decrease along ``_entailed`` and the stale
        pids are its tail.
        """
        subsumed = self.subsumed
        entailed = self._entailed
        while entailed and subsumed[entailed[-1]] > depth:
            del subsumed[entailed.pop()]

    def fixpoint(self):
        """Run pending propagators until quiescence.

        Returns True at the (unique) fixpoint, False when some domain
        emptied; the queue is drained in both cases.
        """
        buckets = self._buckets
        pending = self.pending
        props = self.props
        while True:
            for bucket in buckets:
                if bucket:
                    pid = bucket.popleft()
                    break
            else:
                return True
            pending[pid] = 0
            self.running = pid
            outcome = props[pid].propagate(self)
            self.running = None
            if outcome == AT_FIXPOINT:
                continue
            if outcome == PROP_FAILED:
                self.clear()
                return False
            # SUBSUMED
            self.subsumed[pid] = self.store.depth
            self._entailed.append(pid)
