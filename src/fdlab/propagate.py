"""Event-driven propagation engine with a policy-ordered queue.

Propagators subscribe to (variable, event class) pairs and are run to a
fixpoint.  All propagators are monotone and contracting, so the fixpoint
reached is unique regardless of the queue policy; only the amount of work
to get there differs.
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


class PropQueue:
    """Pending-propagator queue; a propagator appears at most once.

    ``fifo`` ignores priorities; ``priority`` pops the lowest priority
    value first; ``reversed`` pops the highest first.  Within equal
    priority, FIFO order breaks ties.
    """

    POLICIES = ("fifo", "priority", "reversed")

    def __init__(self, policy="fifo"):
        if policy not in self.POLICIES:
            raise ValueError(f"unknown queue policy {policy!r}")
        self.policy = policy
        self._pending = set()
        self._buckets = [deque() for _ in range(NUM_PRIORITIES)]
        if policy == "reversed":
            self._order = range(NUM_PRIORITIES - 1, -1, -1)
        else:
            self._order = range(NUM_PRIORITIES)

    def push(self, pid, priority):
        if pid in self._pending:
            return
        self._pending.add(pid)
        self._buckets[0 if self.policy == "fifo" else priority].append(pid)

    def pop(self):
        for p in self._order:
            bucket = self._buckets[p]
            if bucket:
                pid = bucket.popleft()
                self._pending.discard(pid)
                return pid
        return None

    def clear(self):
        self._pending.clear()
        for bucket in self._buckets:
            bucket.clear()

    def __len__(self):
        return len(self._pending)

    def __contains__(self, pid):
        return pid in self._pending


class Engine:
    """Owns the propagators, their subscriptions, and the fixpoint loop."""

    def __init__(self, store, queue=None):
        self.store = store
        self.queue = queue if queue is not None else PropQueue()
        self.props = []
        self.subs = {}  # variable -> list of (pid, min event class)
        self.subsumed = {}  # pid -> search depth at which it became entailed
        self._entailed = []  # the pids of subsumed, in the order marked
        self.running = None

    def fork(self, store, queue):
        """An engine for one solve over a fork of this engine's store.  It
        owns its queue, entailment record and propagator list but shares
        the subscriptions, so what is added to it must subscribe to none."""
        eng = Engine(store, queue)
        eng.props = list(self.props)
        eng.subs = self.subs
        return eng

    def add(self, prop):
        pid = len(self.props)
        self.props.append(prop)
        for var, klass in prop.subscriptions():
            self.subs.setdefault(var, []).append((pid, klass))
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
        queue = self.queue
        props = self.props
        running = self.running
        subsumed = self.subsumed
        for pid, min_class in subs:
            if strength >= min_class and pid != running and pid not in subsumed:
                queue.push(pid, props[pid].priority)

    def schedule_pid(self, pid):
        if pid not in self.subsumed:
            self.queue.push(pid, self.props[pid].priority)

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
        queue = self.queue
        props = self.props
        while True:
            pid = queue.pop()
            if pid is None:
                return True
            self.running = pid
            outcome = props[pid].propagate(self)
            self.running = None
            if outcome == AT_FIXPOINT:
                continue
            if outcome == PROP_FAILED:
                queue.clear()
                return False
            # SUBSUMED
            self.subsumed[pid] = self.store.depth
            self._entailed.append(pid)
