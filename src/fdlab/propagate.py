"""Event-driven propagation engine with a policy-ordered queue.

Propagators subscribe to (variable, event) pairs and are run to a
fixpoint.  Each solve's store is one ``Engine``, a ``VariableStore`` that
copies the model's domains and adds the queue.  The engine schedules: it
runs each propagator it pops on itself.  Its store half dispatches: it
files every subscription in the wake tables, one per event, as the
propagator joins, and a propagator's domain change is one ``narrow``
call, which walks the table of the change's own event only and queues
the idle pids there itself.  An integer's events are its event classes,
a Boolean's are its fixings to 0 and to 1, so a propagator that can
prune on one value only sleeps through the other.  All propagators are
monotone and contracting, and an event a propagator does not subscribe
to cannot make it prune, so the fixpoint reached is unique regardless of
the queue policy; only the amount of work to get there differs.
"""

from __future__ import annotations

from collections import deque

from .domain import ASLEEP, IDLE, QUEUED, VariableStore

# Propagator outcomes.
AT_FIXPOINT = 0
PROP_FAILED = 1
SUBSUMED = 2

# Queue buckets, popped in this order under the ``priority`` policy.
PRIORITY_CHEAP = 0  # arity <= 3: orderings, conjunction, objective bound
PRIORITY_LINEAR = 1  # linear and Boolean sums
PRIORITY_GLOBAL = 2  # alldifferent, lex


class Propagator:
    """Monotone, contracting filtering function for one constraint."""

    priority = PRIORITY_LINEAR
    #: A propagator that takes deltas is told which of its subscribed
    #: integer variables were instantiated since its last run, or, before
    #: its first run, were already fixed when it joined the engine: the
    #: engine's ``deltas[self]`` lists them.  The store half seeds the list
    #: when the propagator joins and ``narrow`` appends to it; ``clear``
    #: empties it, so a failed fixpoint leaves no stale entry
    #: behind a backtrack.  At a fixpoint every list is empty, because its
    #: propagator has run, and a backtrack returns to a store at such a
    #: fixpoint, so an empty list means there is nothing new.  It may
    #: subsume only once all of those are fixed, so that no entry reaches
    #: its list while it sleeps.
    takes_deltas = False

    def subscriptions(self):
        """Yield (variable, event) wake-up conditions: an ``EventClass``,
        or for a Boolean that prunes on one value only, the ``BoolEvent``
        of that value.  A subscribed propagator must be at its fixpoint
        after any event it does not subscribe to.

        Its subsumption must follow the domains too: at every fixpoint a
        propagator with a subscription is asleep exactly when one run
        would report ``SUBSUMED``, so no event it sleeps through may
        change that report.  Subsumption is then a function of the domains
        and not of the order the events came in, which lets recomputation
        replay a whole path before one fixpoint."""
        return ()

    def propagate(self, store):
        """Filter the domains of ``store``, the solve's ``Engine``: read
        them, narrow them with ``store.narrow``, and return
        ``AT_FIXPOINT``, ``PROP_FAILED`` or ``SUBSUMED``."""
        raise NotImplementedError


class Engine(VariableStore):
    """The store and propagation queue of one solve.  It copies the layout
    and domains of the model's store, with fresh stamps, and the model's
    propagator list, so what the solve narrows or adds stays out of the
    model.  It files each propagator as it joins and owns the pid states
    and per-pid buckets that ``narrow`` queues woken pids in.  With no
    propagators it is a plain copy of the domains that queues nothing.

    Each pid has one state byte: idle, queued, or asleep while it runs or
    stays subsumed.  A domain change queues only the idle pids its event
    wakes, so the running propagator never requeues itself and a subsumed
    one sleeps until a backtrack re-enables it.  The state bytes are part
    of the restorable state: the fixpoint trails a subsumption when the
    engine has a trail, and a snapshot copies the bytes, so the backend
    that restores the domains also restores which pids are subsumed.

    ``fifo`` ignores priorities; ``priority`` pops the lowest priority value
    first; ``reversed`` pops the highest first.  Within equal priority, FIFO
    order breaks ties.  Each propagator's bucket is resolved once, when it
    joins the engine, so queueing makes no policy test.
    """

    # The bucket of each priority under each policy; fixpoint pops the
    # first non-empty bucket.
    _BUCKET_OF = {"fifo": (0, 0, 0), "priority": (0, 1, 2), "reversed": (2, 1, 0)}
    POLICIES = tuple(_BUCKET_OF)

    def __init__(self, store, props, policy="fifo"):
        if policy not in self.POLICIES:
            raise ValueError(f"unknown queue policy {policy!r}")
        super().__init__()
        # The empty domains become a copy of those of ``store``.
        self._region_words = store._region_words
        for name in ("_base", "_mask", "_lo", "_hi", "_bstate"):
            setattr(self, name, getattr(store, name)[:])
        self._stamp = [0] * len(self._mask)
        self.props = list(props)
        # pid -> its bound propagate, bound here so that a propagate patched
        # on the class before the solve starts is the one that runs.
        self._run = [p.propagate for p in self.props]
        bucket_of = self._BUCKET_OF[policy]
        buckets = self._buckets = [deque() for _ in range(max(bucket_of) + 1)]
        by_priority = self._by_priority = tuple(buckets[b] for b in bucket_of)
        self._bucket = [by_priority[p.priority] for p in self.props]  # pid -> its deque
        self._state = bytearray(len(self.props))  # pid -> IDLE, QUEUED or ASLEEP
        self._file(self.props, 0)

    def add(self, prop):
        """Add a propagator to this solve only (branch and bound's bound)
        and return its pid.  It is filed like the model's propagators and
        joins idle: it runs when an event wakes it or when it is pushed."""
        pid = len(self.props)
        self.props.append(prop)
        self._run.append(prop.propagate)
        self._bucket.append(self._by_priority[prop.priority])
        self._state.append(IDLE)
        self._file(self.props, pid)
        return pid

    def push(self, pid):
        """Queue ``pid`` if it is idle: not queued, running or subsumed."""
        state = self._state
        if not state[pid]:
            state[pid] = QUEUED
            self._bucket[pid].append(pid)

    def __contains__(self, pid):
        """True while ``pid`` is queued.  Besides the tests, perfbench's
        tracer reads it: ``_push_wrapper`` tests ``pid in eng`` to count
        pushes of a pid already queued."""
        return self._state[pid] == QUEUED

    @property
    def subsumed(self):
        """The set of asleep pids: at a fixpoint, the subsumed ones."""
        return {pid for pid, s in enumerate(self._state) if s == ASLEEP}

    def clear(self):
        """Empty the queue and the delta lists."""
        state = self._state
        for bucket in self._buckets:
            for pid in bucket:
                state[pid] = IDLE
            bucket.clear()
        for d in self.deltas.values():
            d.clear()

    def schedule_all(self):
        for pid in range(len(self.props)):
            self.push(pid)

    def fixpoint(self):
        """Run pending propagators until quiescence.

        Returns True at the (unique) fixpoint, False when some domain
        emptied; the queue is drained in both cases.
        """
        buckets = self._buckets
        first = buckets[0]  # the only bucket under fifo
        rest = buckets[1:]
        state = self._state
        run = self._run
        trail = self.trail
        while True:
            if first:
                pid = first.popleft()
            else:
                for bucket in rest:
                    if bucket:
                        pid = bucket.popleft()
                        break
                else:
                    return True
            state[pid] = ASLEEP
            outcome = run[pid](self)
            if not outcome:  # AT_FIXPOINT
                state[pid] = IDLE
                continue
            if outcome == PROP_FAILED:
                state[pid] = IDLE
                self.clear()
                return False
            # SUBSUMED: it sleeps until a backtrack restores it to IDLE.
            if trail is not None:
                trail.append((state, pid, IDLE))
