"""Pluggable backtrack-memory backends: trailing, copying, recomputation.

All backends maintain the stack of node frames and restore the variable
store to the exact state it had when a frame was opened.  Trailing records
every domain change and undoes them in reverse; copy-with-recomputation
snapshots the whole contiguous domain region every ``distance`` nodes and
otherwise replays the recorded per-node actions with full propagation from
the nearest snapshot.  Copying is recomputation at distance 1: a snapshot
at every node and nothing to replay.
"""

from __future__ import annotations

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

    ``trail_entries`` counts domain changes, and a propagator may reach the
    same fixpoint in more or fewer steps.  It holds across repetitions of
    one version (and across its ``+ext`` padding), not across versions:
    when the difference constraints moved from ``LinearProp`` to
    ``DiffProp``, golomb:7 under ``trail`` went from 81,406 to 81,393
    entries over the same 2,966 nodes.
    """

    bytes_copied: int = 0
    trail_entries: int = 0
    snapshots_taken: int = 0
    recomputations: int = 0
    replayed_decisions: int = 0


@dataclass(frozen=True)
class RestoreMode:
    """Backend selector.  ``copy`` is ``copy-recompute`` at distance 1."""

    variant: str = "trail"
    distance: int = 1
    adaptive: int = 2

    def __post_init__(self):
        if self.variant not in ("trail", "copy", "copy-recompute"):
            raise ValueError(f"unknown restore mode {self.variant!r}")
        if self.distance < 1 or self.adaptive < 1:
            raise ValueError("recomputation distances must be positive")
        if self.distance != 1 and self.variant != "copy-recompute":
            raise ValueError(f"{self.variant} takes no recomputation distance")

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
    __slots__ = ("actions", "snapshot", "trail_mark")

    def __init__(self, actions, snapshot=None, trail_mark=0):
        self.actions = actions
        self.snapshot = snapshot
        self.trail_mark = trail_mark


class Backend:
    """Common frame-stack behaviour; subclasses fill in the strategy."""

    def __init__(self, store, unsubsume):
        self.store = store
        self.frames = []
        self.stats = RestoreStats()
        self._unsubsume = unsubsume

    def record(self, var, old):
        """Called by the store before a domain mutation becomes visible."""

    def open_node(self, actions):
        raise NotImplementedError

    def backtrack_to(self, target):
        raise NotImplementedError

    def _settle(self, target):
        del self.frames[target:]
        self.store.depth = target
        self._unsubsume(target)


class TrailBackend(Backend):
    def __init__(self, store, unsubsume):
        super().__init__(store, unsubsume)
        self.trail = []

    def record(self, var, old):
        self.trail.append((var, old))
        self.stats.trail_entries += 1

    def open_node(self, actions):
        self.frames.append(_Frame(actions, trail_mark=len(self.trail)))

    def backtrack_to(self, target):
        mark = self.frames[target].trail_mark
        trail = self.trail
        restore = self.store.restore_raw
        for i in range(len(trail) - 1, mark - 1, -1):
            var, old = trail[i]
            restore(var, old)
        del trail[mark:]
        self._settle(target)


class RecomputeBackend(Backend):
    """Copying every ``distance`` nodes, otherwise replay with propagation.

    The adaptive rule places one extra snapshot at the midpoint of the
    replayed path whenever the path length reaches ``adaptive``.
    """

    def __init__(self, store, unsubsume, replay, distance, adaptive=2):
        super().__init__(store, unsubsume)
        self._replay = replay
        self.distance = distance
        self.adaptive = adaptive

    def _snap(self, frame):
        frame.snapshot = self.store.snapshot_blob()
        self.stats.snapshots_taken += 1
        self.stats.bytes_copied += self.store.region_bytes

    def open_node(self, actions):
        frame = _Frame(actions)
        if len(self.frames) % self.distance == 0:
            self._snap(frame)
        self.frames.append(frame)

    def backtrack_to(self, target):
        frames = self.frames
        store = self.store
        if frames[target].snapshot is not None:
            store.load_blob(frames[target].snapshot)
            self._settle(target)
            return
        k = target - 1
        while frames[k].snapshot is None:
            k -= 1
        store.load_blob(frames[k].snapshot)
        store.depth = k
        self._unsubsume(k)
        self.stats.recomputations += 1
        self.stats.replayed_decisions += target - k
        mid = k + (target - k) // 2 if target - k >= self.adaptive else None
        for m in range(k, target):
            if m == mid and frames[m].snapshot is None:
                self._snap(frames[m])
            store.depth = m + 1
            self._replay(frames[m].actions)
        self._settle(target)


class ShadowBackend(Backend):
    """Testing aid: runs a primary backend, snapshots the domains at every
    node it opens and verifies bit-identical restoration after every
    backtrack."""

    def __init__(self, primary):
        self.primary = primary
        self.expected = []  # one snapshot per open frame
        self.mismatches = 0

    @property
    def stats(self):
        return self.primary.stats

    def record(self, var, old):
        self.primary.record(var, old)

    def open_node(self, actions):
        self.expected.append(self.primary.store.snapshot_blob())
        self.primary.open_node(actions)

    def backtrack_to(self, target):
        expected = self.expected[target]
        del self.expected[target:]
        self.primary.backtrack_to(target)
        if not self.primary.store.domains_equal(expected):
            self.mismatches += 1


def make_backend(mode, store, unsubsume, replay):
    if mode.variant == "trail":
        return TrailBackend(store, unsubsume)
    return RecomputeBackend(store, unsubsume, replay, mode.distance, mode.adaptive)
