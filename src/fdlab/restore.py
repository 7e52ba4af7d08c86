"""Pluggable backtrack-memory backends: trailing, copying, recomputation.

All backends maintain the stack of node frames and restore the variable
store's domains and pid states, which say what is subsumed, to the exact
state they had when a frame was opened.  Trailing trails each variable's
state at most once per node, and each subsumption, and writes those
states back in reverse; copy-with-recomputation snapshots the whole
region every ``distance`` nodes and otherwise replays the frames
recorded since the nearest snapshot, one segment per call: a segment's
actions are applied together and propagated to one fixpoint.  Copying is
recomputation at distance 1: a snapshot at every node and nothing to
replay.
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
    """Backend selector.  ``copy`` is ``copy-recompute`` at distance 1.

    ``distance`` and ``adaptive`` are the recomputation distances, positive
    integers; only ``copy-recompute`` takes others than the defaults."""

    variant: str = "trail"
    distance: int = 1
    adaptive: int = 2

    def __post_init__(self):
        if self.variant not in ("trail", "copy", "copy-recompute"):
            raise ValueError(f"unknown restore mode {self.variant!r}")
        try:
            distances = [operator.index(d) for d in (self.distance, self.adaptive)]
        except TypeError:
            raise ValueError("recomputation distances must be integers") from None
        if min(distances) < 1:
            raise ValueError("recomputation distances must be positive")
        recomputes = (self.distance, self.adaptive) != (1, 2)
        if recomputes and self.variant != "copy-recompute":
            raise ValueError(f"{self.variant} takes no recomputation distances")

    @staticmethod
    def trail():
        return RestoreMode("trail")

    @staticmethod
    def copy():
        return RestoreMode("copy")

    @staticmethod
    def copy_recompute(distance, adaptive=2):
        return RestoreMode("copy-recompute", distance, adaptive)


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
        mark = self.frames[target]
        self._undone += len(self.trail) - mark
        self.store.undo(mark)
        del self.frames[target:]


class RecomputeBackend:
    """Copying every ``distance`` nodes, otherwise replay with propagation.

    A backtrack loads the nearest snapshot at or above the target frame and
    replays the frames in between, one segment per ``replay(actions)``
    call, with the segment's frames' actions concatenated oldest first.
    The adaptive rule places one extra snapshot at the midpoint of the
    replayed path whenever the path length reaches ``adaptive``, and that
    snapshot is the only place a path splits into two segments.

    Batching is exact because the fixpoint is unique and every propagator
    sleeps exactly when a run would report it subsumed (see
    ``Propagator.subscriptions``): one fixpoint after a segment's actions
    leaves the domains and the pid states that a fixpoint per frame would.
    ``replayed_decisions`` still counts frames.
    """

    def __init__(self, store, replay, distance, adaptive=2):
        self.store = store
        self.frames = []
        self._replay = replay
        self.distance = distance
        self.adaptive = adaptive
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
        frames = self.frames
        k = target
        while frames[k].snapshot is None:
            k -= 1
        self.store.load_blob(frames[k].snapshot)
        if k < target:
            self._recomputations += 1
            self._replayed += target - k
            mid = k + (target - k) // 2
            if target - k >= self.adaptive and frames[mid].snapshot is None:
                self._replay_segment(frames[k:mid])
                self._snap(frames[mid])
                k = mid
            self._replay_segment(frames[k:target])
        del frames[target:]

    def _replay_segment(self, segment):
        self._replay([action for frame in segment for action in frame.actions])


def make_backend(mode, store, replay):
    if mode.variant == "trail":
        return TrailBackend(store)
    return RecomputeBackend(store, replay, mode.distance, mode.adaptive)
