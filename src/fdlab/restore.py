"""Pluggable backtrack-memory backends: trailing, copying, recomputation.

All backends maintain the stack of node frames and restore the variable
store's domains and pid states, which say what is subsumed, to the exact
state they had when a frame was opened.  Trailing trails each variable's
state at most once per node, and each subsumption, and writes those
states back in reverse; copy-with-recomputation snapshots the whole
region every ``distance`` nodes and otherwise recomputes from the
nearest snapshot the frames recorded since: a segment's actions are
applied together and propagated to one fixpoint.  The last segment of a
backtrack is not replayed: ``backtrack_to`` returns its actions, the
tail, and the search applies them ahead of the next node's own actions,
before that node's one fixpoint.  A ``RestoreMode`` is one distance:
``None`` trails, and copying is recomputation at distance 1, a snapshot
at every node and nothing to recompute.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass


@dataclass
class RestoreStats:
    """Restoration counters of one solve.

    ``snapshots_taken``, ``recomputations`` and ``replayed_decisions``
    depend only on the search tree and the backend's distances, so, like
    the search's nodes, backtracks and solutions, they hold across code
    versions: a change that alters one of them changed the search.
    ``bytes_copied`` is ``snapshots_taken`` times the store's modelled
    region, so it holds while the model's variables stay the same.

    ``trail_entries`` counts first changes per node and subsumptions: the
    store trails an integer variable at most once per frame, a Boolean
    changes at most once on a path, and a subsumed propagator sleeps for
    the rest of the path.  Which of them a node changes depends on how its
    propagators reach the fixpoint, so the count holds across repetitions
    of one version (and across its ``+ext`` padding), not across
    versions.  ``bytes_copied`` leaves the pid states out.
    """

    bytes_copied: int = 0
    trail_entries: int = 0
    snapshots_taken: int = 0
    recomputations: int = 0
    replayed_decisions: int = 0


@dataclass(frozen=True)
class RestoreMode:
    """Backend selector: ``distance`` is ``None`` for trailing, otherwise
    the positive number of nodes between snapshots, with recomputation in
    between.  Copying is distance 1, so ``copy()`` equals
    ``copy_recompute(1)``."""

    distance: int | None = None

    def __post_init__(self):
        if self.distance is None:
            return
        try:
            distance = operator.index(self.distance)
        except TypeError:
            distance = 0
        if distance < 1:
            raise ValueError(f"recomputation distance {self.distance!r} is not a positive integer")
        # Keep the plain int, so RestoreMode(True) holds 1; the class is frozen.
        object.__setattr__(self, "distance", distance)

    @property
    def variant(self):
        if self.distance is None:
            return "trail"
        return "copy" if self.distance == 1 else "copy-recompute"

    @staticmethod
    def trail():
        return RestoreMode()

    @staticmethod
    def copy():
        return RestoreMode(1)

    @staticmethod
    def copy_recompute(distance):
        return RestoreMode(distance)


class _Frame:
    __slots__ = ("actions", "snapshot")

    def __init__(self, actions):
        self.actions = actions
        self.snapshot = None


class TrailBackend:
    """Trailing: the store appends the state of each variable a node first
    changes to ``trail``, and a backtrack writes back the states trailed
    since the target frame opened, in reverse.  A frame is the mark that
    ``VariableStore.mark`` returned when its node opened: the trail's
    length, at the start of a new store frame."""

    def __init__(self, store):
        self.store = store
        self.frames = []
        self.trail = store.trail = []
        self._undone = 0  # trail entries already undone

    @property
    def stats(self):
        return RestoreStats(trail_entries=self._undone + len(self.trail))

    def open_node(self, actions):
        self.frames.append(self.store.mark())

    def backtrack_to(self, target):
        """Restore the state of frame ``target`` in full: no tail."""
        mark = self.frames[target]
        self._undone += len(self.trail) - mark
        self.store.undo(mark)
        del self.frames[target:]
        return ()


class RecomputeBackend:
    """Copying every ``distance`` nodes, otherwise recomputation.

    A backtrack loads the nearest snapshot at or above the target frame, at
    frame ``k``, and recomputes the frames in between, each segment's
    actions concatenated oldest first.  A path of two frames or more splits
    once, at ``mid = k + (target - k) // 2``: one ``replay(actions)`` call
    takes it there, and ``mid`` takes a snapshot of that state.  The last
    segment is not replayed: ``backtrack_to`` returns its actions as the
    tail, which the search applies ahead of the new node's actions and
    propagates with them.  A backtrack that loads the target frame's own
    snapshot returns ``()``.  The node that opens at ``target`` never takes
    a snapshot over a pending tail: it does so only at a depth that is a
    multiple of ``distance``, where the target frame, opened at the same
    depth, took one too.

    Batching is exact because the fixpoint is unique and every propagator
    sleeps exactly when a run would report it subsumed (see
    ``Propagator.subscriptions``): one fixpoint after a segment's actions
    leaves the domains and the pid states that a fixpoint per frame would,
    and one after a tail and a node's actions those that replaying the tail
    first would.  ``recomputations`` and ``replayed_decisions`` count
    frames, replayed or returned as a tail.
    """

    def __init__(self, store, replay, distance):
        self.store = store
        self.frames = []
        self._replay = replay
        self.distance = distance
        self._snapshots = 0
        self._recomputations = 0
        self._replayed = 0

    @property
    def stats(self):
        return RestoreStats(
            bytes_copied=self._snapshots * self.store.region_bytes,
            snapshots_taken=self._snapshots,
            recomputations=self._recomputations,
            replayed_decisions=self._replayed,
        )

    def _snap(self, frame):
        frame.snapshot = self.store.snapshot_blob()
        self._snapshots += 1

    def open_node(self, actions):
        frame = _Frame(actions)
        if len(self.frames) % self.distance == 0:
            self._snap(frame)
        self.frames.append(frame)

    def backtrack_to(self, target):
        """Load the nearest snapshot and recompute up to frame ``target``.
        Returns the tail left for the next node to apply, or ``()``."""
        frames = self.frames
        k = target
        while frames[k].snapshot is None:
            k -= 1
        self.store.load_blob(frames[k].snapshot)
        tail = ()
        if k < target:
            self._recomputations += 1
            self._replayed += target - k
            mid = k + (target - k) // 2
            if mid > k:
                self._replay(_actions(frames[k:mid]))
                self._snap(frames[mid])
                k = mid
            tail = _actions(frames[k:target])
        del frames[target:]
        return tail


def _actions(segment):
    """The actions of a segment's frames, oldest first."""
    return [action for frame in segment for action in frame.actions]


def make_backend(mode, store, replay):
    if mode.distance is None:
        return TrailBackend(store)
    return RecomputeBackend(store, replay, mode.distance)
